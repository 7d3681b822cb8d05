"""The chaos engine: seeded fault plans swept across I1-I4.

The paper's central promise is that I1-I4 are four implementations of
*one* machine: same programs, same answers, different costs.  That
promise must also hold under duress — an exhausted arena, a drained
free list, a flush storm, an injected trap, a kill-and-restore, a frame
lost on the wire — or the ladder's differential measurements mean
nothing.  The engine replays seeded
:class:`~repro.faults.plan.FaultPlan` schedules on every implementation
and classifies each run:

``RECOVERED``
    The run absorbed the fault and finished with the program's
    expected results (the section 5.3 software allocator refilled a
    drained list; the section 7.1 fallback flushed and refilled).
``TRAPPED``
    The run surfaced a modelled trap cleanly, with a kind and a detail,
    never a host exception from inside the interpreter.
``RESUMED``
    The machine was killed after a snapshot, restored onto a freshly
    linked image, and finished with expected results and modelled
    meters **bit-identical** to an uninterrupted reference run.

A :class:`Family` supplies the plan table, the case runner, the report
schema and the contract; the sweep loop and the conformance check are
shared.  This module defines :data:`MACHINE`; :mod:`repro.net.chaos`
the transport-fault families.  PCs and procedure names are asserted
*valid* per implementation, not equal across them.
"""

from __future__ import annotations

import enum
import itertools
import random
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from repro.errors import TrapError
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, Injection, at_step, on_event
from repro.faults.snapshot import capture, restore
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.interp.traps import TrapKind, TrapTransfer
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link
from repro.workloads.programs import CORPUS, Program

#: The report format version (see docs/faults.md for the policy).
CHAOS_SCHEMA = "repro-chaos/1"

#: Implementations under conformance test.
ALL_PRESETS = ("i1", "i2", "i3", "i4")

#: Default corpus subset: recursive programs stress the allocators and
#: the return stack; calls/mathlib stress linkage under flush storms.
DEFAULT_PROGRAMS = ("fib", "calls", "queens", "mathlib", "ackermann")

#: Restore attempts per case before declaring the plan divergent.
MAX_RESTORES = 3

#: Plans that only make sense where recursion forces every
#: implementation (including I4's deferred allocation) into the heap.
_RECURSIVE = frozenset({"fib", "ackermann", "queens"})


class OutcomeClass(str, enum.Enum):
    RECOVERED = "recovered"
    TRAPPED = "trapped"
    RESUMED = "resumed"


@dataclass
class Outcome:
    """How one (program, implementation, plan) run ended, in any family:
    a cluster run fills ``ticks`` and ``wire`` where a machine run fills
    ``steps`` and ``restores``."""

    klass: OutcomeClass
    trap: str = ""
    pc: int = -1
    proc: str = ""
    detail: str = ""
    results: list[int] = field(default_factory=list)
    output: list[int] = field(default_factory=list)
    steps: int = 0
    ticks: int = 0
    meters: dict = field(default_factory=dict)
    restores: int = 0
    injections_fired: int = 0
    wire: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but the raw meters and output."""
        doc = asdict(self)
        del doc["meters"], doc["output"]
        return {"class": doc.pop("klass").value, **doc}


class ChaosError(Exception):
    """The harness itself is misconfigured (not a conformance failure)."""


# ---------------------------------------------------------------------------
# Building machines and reference runs
# ---------------------------------------------------------------------------


def _build(program: Program, preset: str, engine: str = "interp") -> Machine:
    config = MachineConfig.preset(preset)
    modules = compile_program(list(program.sources), CompileOptions.for_config(config))
    image = link(modules, config, program.entry)
    machine = Machine(image)
    if engine == "jit":
        from repro.jit import install_jit

        install_jit(machine)
    return machine


class _EventCounter:
    """A minimal tracer that tallies event kinds (reference runs)."""

    trace_steps = False

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def emit(self, kind: str, name: str = "", **data) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1


@dataclass
class Reference:
    """An uninterrupted run of (program, preset): the oracle."""

    steps: int
    meters: dict
    event_counts: dict[str, int]


def reference_run(program: Program, preset: str) -> Reference:
    """Run *program* on *preset* with no faults; record the oracle."""
    machine = _build(program, preset)
    counter = _EventCounter()
    machine.attach_tracer(counter)
    machine.start(program.entry[0], program.entry[1], *program.args)
    machine.run()
    return Reference(
        steps=machine.steps,
        meters=machine.counter.snapshot(),
        event_counts=dict(counter.counts),
    )


# ---------------------------------------------------------------------------
# Canned plan generators
# ---------------------------------------------------------------------------
#
# Each generator gets the program, the per-preset references (for
# sizing triggers so they fire on *every* implementation), and a seeded
# RNG; it returns the plan's injections, or None when the plan does not
# apply to this program (e.g. too few allocations to target).


def _min_event(refs: dict[str, Reference], kind: str) -> int:
    return min(ref.event_counts.get(kind, 0) for ref in refs.values())


def _min_steps(refs: dict[str, Reference]) -> int:
    return min(ref.steps for ref in refs.values())


def _plan_av_empty(program, refs, rng) -> tuple[Injection, ...] | None:
    """Drain every AV free list on the k-th allocation; the next one
    takes the section 5.3 software-allocator trap and the run recovers."""
    ceiling = _min_event(refs, "alloc.frame")
    if ceiling < 1:
        return None
    k = rng.randint(1, ceiling)
    return (Injection(on_event("alloc.frame", k), "drain_av"),)


def _plan_heap_exhaust(program, refs, rng) -> tuple[Injection, ...] | None:
    """Empty the frame arena at machine start; the first allocation must
    surface RESOURCE_EXHAUSTED on every implementation.

    Fires on ``machine.begin`` (not a mid-run step) because frees refill
    free lists: exhausting mid-run lets a free/allocate interleaving —
    which legitimately differs between implementations — decide whether
    the next allocation traps, and the outcome class would diverge.
    Only recursive programs apply: they call before they ever free, on
    every rung of the ladder including I4's deferred allocation.
    """
    if program.name not in _RECURSIVE:
        return None
    return (Injection(on_event("machine.begin", 1), "exhaust_heap"),)


def _plan_spill_storm(program, refs, rng) -> tuple[Injection, ...] | None:
    """Force return-stack and bank flushes at three seeded call points;
    I3/I4 must fall back to the general scheme and still finish right
    (on I1/I2 the actions are no-ops and the run is undisturbed)."""
    calls = _min_event(refs, "xfer.call")
    if calls < 3:
        return None
    k = rng.randint(1, calls // 3)
    return (
        Injection(on_event("xfer.call", k), "flush_rstack"),
        Injection(on_event("xfer.call", 2 * k), "flush_banks"),
        Injection(on_event("xfer.call", 3 * k), "flush_rstack"),
    )


def _plan_kill_resume(program, refs, rng) -> tuple[Injection, ...] | None:
    """Snapshot at step S1, kill at step S2: the driver restores the
    snapshot onto a fresh image and the finished run must be
    bit-identical to the uninterrupted reference on all meters."""
    steps = _min_steps(refs)
    if steps < 10:
        return None
    s1 = rng.randint(1, steps // 2)
    s2 = rng.randint(s1 + 1, steps - 1)
    return (
        Injection(at_step(s1), "snapshot"),
        Injection(at_step(s2), "kill"),
    )


def _plan_trap_inject(program, refs, rng) -> tuple[Injection, ...] | None:
    """Dispatch a DIVIDE_BY_ZERO trap at a seeded step; with no trap
    context registered every implementation must surface the same
    TrapError kind with valid (pc, proc) diagnostics."""
    steps = _min_steps(refs)
    if steps < 2:
        return None
    s = rng.randint(1, steps - 1)
    return (Injection(at_step(s), "trap", detail="divide_by_zero"),)


CANNED_PLANS = {
    "av_empty": _plan_av_empty,
    "heap_exhaust": _plan_heap_exhaust,
    "spill_storm": _plan_spill_storm,
    "kill_resume": _plan_kill_resume,
    "trap_inject": _plan_trap_inject,
}


def make_plan(
    name: str, program: Program, refs: dict[str, Reference], seed: int
) -> FaultPlan | None:
    """Instantiate canned plan *name* for *program*, seeded; None if it
    does not apply.  The same (name, program, seed) always yields the
    same plan — triggers are sized from the references, which are a
    pure function of program and preset."""
    rng = random.Random(f"{name}:{program.name}:{seed}")
    injections = CANNED_PLANS[name](program, refs, rng)
    if injections is None:
        return None
    return FaultPlan(name=name, seed=seed, injections=injections)


# ---------------------------------------------------------------------------
# Running one case
# ---------------------------------------------------------------------------


def run_case(
    program: Program, preset: str, plan: FaultPlan, engine: str = "interp"
) -> Outcome:
    """Run *program* on *preset* under *plan*; classify the ending.

    The controller drives the machine's run loop: state actions fire
    inside the injector; control actions break the loop at an
    instruction boundary and are executed here (snapshot the state
    vector, kill-and-restore onto a fresh image, dispatch a trap).

    With ``engine="jit"`` every machine gets a compiled engine; the
    injector's tracer pins execution to the interpreter (the deopt
    contract), so outcomes must be identical — this arm checks that
    installing the engine never perturbs a faulted run.
    """
    machine = _build(program, preset, engine)
    injector = FaultInjector(plan)
    machine.attach_tracer(injector)
    machine.start(program.entry[0], program.entry[1], *program.args)

    saved: tuple[dict, dict] | None = None  # (machine state, injector state)
    restores = 0
    fired = 0

    try:
        while True:
            machine.run()
            if machine.halted:
                break
            # The injector broke the loop for a control action.
            machine.yield_requested = False
            for index, injection in injector.take_pending():
                if injection.action == "snapshot":
                    saved = (capture(machine), injector.state())
                elif injection.action == "kill":
                    if saved is None:
                        raise ChaosError(
                            f"plan {plan.name!r} kills at injection {index} "
                            f"with no prior snapshot"
                        )
                    if restores >= MAX_RESTORES:
                        raise ChaosError(
                            f"plan {plan.name!r} exceeded {MAX_RESTORES} restores"
                        )
                    fired += len(injector.fired)
                    machine_state, injector_state = saved
                    machine = _build(program, preset, engine)
                    injector = FaultInjector(plan, state=injector_state)
                    # The kill already happened; it must not fire again in
                    # the restored run.
                    injector.disarm(index)
                    machine.attach_tracer(injector)
                    restore(machine, machine_state)
                    restores += 1
                    break  # stale pending actions died with the old machine
                elif injection.action == "trap":
                    try:
                        machine.trap(TrapKind(injection.detail), "injected")
                    except TrapTransfer:
                        pass
        ending = Outcome(
            OutcomeClass.RESUMED if restores else OutcomeClass.RECOVERED,
            results=machine.results(),
            output=list(machine.output),
        )
    except TrapError as err:
        ending = Outcome(
            OutcomeClass.TRAPPED,
            trap=err.trap,
            pc=err.pc,
            proc=err.proc,
            detail=err.detail,
        )
    ending.steps = machine.steps
    ending.meters = machine.counter.snapshot()
    ending.restores = restores
    ending.injections_fired = fired + len(injector.fired)
    return ending


# ---------------------------------------------------------------------------
# The engine: one case type, one report, one sweep loop, one check
# ---------------------------------------------------------------------------


@dataclass
class CaseResult:
    """One (program, seed, plan) cell: outcomes on every preset."""

    program: str
    seed: int
    plan: dict
    outcomes: dict[str, Outcome]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        outcomes = {p: o.to_dict() for p, o in self.outcomes.items()}
        return {**asdict(self), "outcomes": outcomes}


@dataclass
class ChaosReport:
    """One family's sweep: cases, skips, and the conformance verdict."""

    family: Family
    presets: tuple[str, ...]
    cases: list[CaseResult] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def to_dict(self) -> dict:
        return {
            "schema": self.family.schema,
            "ok": self.ok,
            "cases": [case.to_dict() for case in self.cases],
            "skipped": list(self.skipped),
        }

    def summary(self) -> str:
        failed = [case for case in self.cases if not case.ok]
        by_class = Counter(
            outcome.klass.value
            for case in self.cases
            for outcome in case.outcomes.values()
        )
        lines = [
            f"{self.family.name} chaos: {len(self.cases)} cases x "
            f"{len(self.presets)} impls, "
            f"{len(self.skipped)} skipped (plan not applicable)",
            "outcomes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(by_class.items())),
        ]
        if failed:
            lines.append(f"FAILED: {len(failed)} non-conformant cases")
            for case in failed[:10]:
                lines.append(
                    f"  {case.program} seed={case.seed} "
                    f"plan={case.plan['name']}: {'; '.join(case.failures)}"
                )
        else:
            lines.append("all implementations conformant")
        return "\n".join(lines)


@dataclass(frozen=True)
class Family:
    """What one kind of chaos sweep varies and what it promises.

    ``make_plan(name, program, refs, seed)`` instantiates a plan of the
    table (None: it does not apply); ``run(program, preset, plan,
    engine)`` runs one case on one implementation.  The contract: every
    preset lands in the same class and trap kind (``presets_agree``); a
    re-run meters identically (``rerun_meters``); a case ends in one of
    ``endings``; a trap names its (pc, proc) (``sited``).
    """

    name: str
    schema: str
    plans: tuple[str, ...]
    make_plan: Callable[[str, Program, dict, int], FaultPlan | None]
    run: Callable[[Program, str, FaultPlan, str], Outcome]
    programs: tuple[str, ...]
    presets: tuple[str, ...] = ALL_PRESETS
    presets_agree: bool = True
    rerun_meters: bool = False
    endings: frozenset[OutcomeClass] = frozenset(OutcomeClass)
    sited: bool = False

    def sweep(
        self,
        programs: tuple[str, ...] = (),
        seeds: int | tuple[int, ...] = 5,
        plans: tuple[str, ...] = (),
        presets: tuple[str, ...] = (),
        engine: str = "interp",
    ) -> ChaosReport:
        """programs x seeds x plans, each case run on every preset and
        checked against the family's contract (empty tuples mean the
        family's defaults)."""
        programs, plans = programs or self.programs, plans or self.plans
        for kind, names, known in (
            ("corpus programs", programs, CORPUS), ("plans", plans, self.plans)
        ):
            if unknown := [name for name in names if name not in known]:
                raise ChaosError(f"unknown {kind} {unknown} for the {self.name} "
                                 f"family (known: {', '.join(known)})")
        presets = tuple(presets or self.presets)
        seed_list = tuple(range(seeds)) if isinstance(seeds, int) else tuple(seeds)
        report = ChaosReport(self, presets)
        for name in programs:
            program = CORPUS[name]
            if program.needs_descriptors and "i1" in presets:
                report.skipped.append({"program": name, "reason": "needs descriptors"})
                continue
            refs = {preset: reference_run(program, preset) for preset in presets}
            for seed, plan_name in itertools.product(seed_list, plans):
                plan = self.make_plan(plan_name, program, refs, seed)
                if plan is None:
                    report.skipped.append(
                        {"program": name, "seed": seed, "plan": plan_name,
                         "reason": "not applicable"}
                    )
                    continue
                outcomes: dict[str, Outcome] = {}
                failures: list[str] = []
                for preset in presets:
                    outcomes[preset] = self.run(program, preset, plan, engine)
                    if self.rerun_meters and (
                        self.run(program, preset, plan, engine).meters
                        != outcomes[preset].meters
                    ):
                        failures.append(
                            f"{preset}: meters differ between two seeded "
                            f"runs of the same plan"
                        )
                failures += self.check(program, outcomes, refs)
                report.cases.append(
                    CaseResult(name, seed, plan.to_dict(), outcomes, failures)
                )
        return report

    def check(
        self, program: Program, outcomes: dict[str, Outcome],
        refs: dict[str, Reference],
    ) -> list[str]:
        """Conformance and per-outcome validity checks for one case."""
        failures: list[str] = []
        if self.presets_agree:
            if len({o.klass for o in outcomes.values()}) > 1:
                return [
                    "outcome classes diverge: "
                    + ", ".join(
                        f"{p}={o.klass.value}" for p, o in sorted(outcomes.items())
                    )
                ]
            kinds = {o.trap for o in outcomes.values()}
            if len(kinds) > 1:
                failures.append(f"trap kinds diverge: {sorted(kinds)}")

        expected = list(program.expect_results)
        for preset, outcome in outcomes.items():
            if outcome.klass not in self.endings:
                failures.append(
                    f"{preset}: a {self.name} case may not end "
                    f"{outcome.klass.value} ({outcome.trap}: {outcome.detail})"
                )
            if outcome.wire.get("migrated") is False:
                failures.append(f"{preset}: the root never migrated")
            if outcome.klass is OutcomeClass.TRAPPED:
                if not outcome.trap:
                    failures.append(f"{preset}: trapped without a kind")
                if not outcome.detail:
                    failures.append(f"{preset}: trapped without diagnostics")
                if self.sited and (outcome.pc < 0 or not outcome.proc):
                    failures.append(f"{preset}: trapped without a (pc, proc) site")
                continue
            if outcome.results != expected:
                failures.append(
                    f"{preset}: results {outcome.results} != expected {expected}"
                )
            if program.expect_output and outcome.output != list(program.expect_output):
                failures.append(f"{preset}: output diverged from the program's")
            if outcome.klass is OutcomeClass.RESUMED:
                ref = refs[preset]
                if outcome.restores < 1:
                    failures.append(f"{preset}: classed RESUMED without a restore")
                if outcome.meters != ref.meters:
                    delta = {
                        key: outcome.meters.get(key, 0) - ref.meters.get(key, 0)
                        for key in set(outcome.meters) | set(ref.meters)
                        if outcome.meters.get(key, 0) != ref.meters.get(key, 0)
                    }
                    failures.append(
                        f"{preset}: meters diverged from uninterrupted run: {delta}"
                    )
                if outcome.steps != ref.steps:
                    failures.append(
                        f"{preset}: steps {outcome.steps} != reference {ref.steps}"
                    )
        return failures


#: Fault plans over corpus programs on one machine per preset.
MACHINE = Family(
    name="machine",
    schema=CHAOS_SCHEMA,
    plans=tuple(CANNED_PLANS),
    make_plan=make_plan,
    run=run_case,
    programs=DEFAULT_PROGRAMS,
    sited=True,
)

run_chaos = MACHINE.sweep
