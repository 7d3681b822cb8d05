"""The ``run-interp`` and ``run-jit`` workloads: program runs as
``repro run`` sets them up.

The mix is the whole corpus (``workloads/programs.py``) on I1-I4,
leaving out the descriptor programs on I1, plus seeded
``workloads/generator.py`` programs at two shapes: the default 4x5
procedures and a wider 6x6 graph.  Each generated program's driver loop
is scaled so that it retires about ``TARGET_STEPS`` instructions on I2;
the calibration reads the modelled step count, so it depends on the
seed alone.

One operation is one program run: link, build the machine, attach the
256-event ``TraceRecorder`` ring (``run-interp``, as ``cmd_run`` does) or
install the JIT (``run-jit``, no tracer), start, run, check.  Compiling
happens in set-up; the compiled modules are reused by every run.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.alloc.avheap import AVHeap
from repro.banks.bankfile import BankFile
from repro.errors import ReproError
from repro.interp import machine as machine_module
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.jit import JitEngine, JitRefusal, install_jit
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link
from repro.machine.costs import CycleCounter
from repro.machine.memory import Memory
from repro.obs import TraceRecorder
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.programs import corpus_sources

from harness import HostSpeed, Outcome, Pass, Phase, median, repeat_setup
from spans import Tracer, time_per_op

PRESETS = ("i1", "i2", "i3", "i4")
#: Generator shapes: the default 4x5 procedures and a wider 6x6 graph.
SHAPES = (("gen", {}), ("wide", {"modules": 6, "procs_per_module": 6}))
#: Several small programs per shape rather than a few large ones: the
#: seed's programs then move the mix's totals by a few percent only.
GENERATED_PER_SHAPE = 3
#: Instructions (on I2) each generated program's driver loop is scaled to.
TARGET_STEPS = 5_000
#: The modelled layer counters :func:`add_machine_counts` sums.
COUNT_KEYS = (
    "steps", "interp_steps", "mem_refs", "linkage_hits", "linkage_misses",
    "allocations", "replenishments", "bank_xfers", "bank_overflows",
    "words_spilled", "return_hits", "return_misses", "blocks",
    "cells_built", "deopts", "deopt_steps", "sites_demoted",
    "observer_bailouts",
)
#: How far from ``TARGET_STEPS`` a generated program may land.
STEP_TOLERANCE = 0.25
#: Driver-loop bound: the loop counter is a 16-bit signed word.
MAX_LOOPS = 20_000


@dataclass(frozen=True)
class Program:
    label: str
    sources: tuple[str, ...]
    entry: tuple[str, str]
    args: tuple[int, ...]
    expect_results: tuple[int, ...]
    expect_output: tuple[int, ...] = ()
    needs_descriptors: bool = False


@dataclass
class Item:
    """One (program, preset) pair of the mix."""

    program: Program
    preset: str
    config: MachineConfig
    modules: list | None = None
    #: The interpreter's meter snapshot for this item (``run-jit`` only).
    reference: dict | None = None

    @property
    def label(self) -> str:
        return f"{self.program.label}@{self.preset}"


def _steps(sources: list[str], entry: tuple[str, str]) -> int:
    config = MachineConfig.i2()
    machine = Machine(link(compile_program(sources, CompileOptions.for_config(config)), config, entry))
    machine.start(*entry)
    machine.run()
    return machine.steps


def generated_programs(seed: int) -> list[Program]:
    """Seeded generator programs, loop-scaled to about ``TARGET_STEPS``.

    A program whose driver loop cannot come within ``STEP_TOLERANCE`` of
    the target (one iteration already overshoots it) is replaced by the
    next program the seed draws, so every generated program does about
    the same modelled work.
    """
    rng = random.Random(seed)
    programs = []
    for shape, fields in SHAPES:
        made = 0
        while made < GENERATED_PER_SHAPE:
            program_seed = rng.randrange(2**31)
            one, two = (
                generate_program(GeneratorConfig(seed=program_seed, loop_iterations=n, **fields))
                for n in (1, 2)
            )
            first = _steps(one.sources, one.entry)
            per_loop = _steps(two.sources, two.entry) - first
            fixed = first - per_loop
            loops = max(1, min(MAX_LOOPS, round((TARGET_STEPS - fixed) / max(per_loop, 1))))
            if abs(fixed + loops * per_loop - TARGET_STEPS) > STEP_TOLERANCE * TARGET_STEPS:
                continue
            generated = generate_program(
                GeneratorConfig(seed=program_seed, loop_iterations=loops, **fields)
            )
            programs.append(
                Program(
                    label=f"{shape}{made}",
                    sources=tuple(generated.sources),
                    entry=generated.entry,
                    args=(),
                    expect_results=(generated.expected,),
                )
            )
            made += 1
    return programs


def make_mix(seed: int) -> list[Item]:
    programs = [
        Program(
            label=entry.name,
            sources=entry.sources,
            entry=entry.entry,
            args=entry.args,
            expect_results=entry.expect_results,
            expect_output=entry.expect_output,
            needs_descriptors=entry.needs_descriptors,
        )
        for entry in corpus_sources()
    ]
    programs += generated_programs(seed)
    return [
        Item(program=program, preset=preset, config=MachineConfig.preset(preset))
        for preset in PRESETS
        for program in programs
        # SIMPLE linkage (I1) has no packed descriptors for XFER.
        if not (preset == "i1" and program.needs_descriptors)
    ]


class RunMix:
    """One of the two program-run workloads over a seeded mix."""

    def __init__(self, seed: int, engine: str, items: list[Item] | None = None) -> None:
        self.engine = engine
        self.items = items if items is not None else make_mix(seed)
        self.outcome = Outcome()
        #: Per set-up: seconds in compile and in link.
        self.setup_parts: list[dict[str, float]] = []
        #: Modelled cycles of one pass over the mix.
        self.sim_cycles = 0

    # -- set-up -------------------------------------------------------------

    def setup(self, speed: HostSpeed | None = None) -> list[float]:
        """Compile, link and build every item (and install the JIT);
        return each item's seconds, running the canary after each."""
        parts = {"compile": 0.0, "link": 0.0}
        seconds = []
        for item in self.items:
            entry = item.program.entry
            t0 = time.perf_counter()
            item.modules = compile_program(
                list(item.program.sources), CompileOptions.for_config(item.config)
            )
            t1 = time.perf_counter()
            image = link(item.modules, item.config, entry)
            t2 = time.perf_counter()
            machine = Machine(image)
            if self.engine == "jit":
                install_jit(machine)
            seconds.append(time.perf_counter() - t0)
            parts["compile"] += t1 - t0
            parts["link"] += t2 - t1
            if speed is not None:
                speed.sample()
        self.setup_parts.append(parts)
        return seconds

    def setup_repeated(self) -> tuple[list[float], list[float]]:
        return repeat_setup(self.setup)

    def prepare(self) -> None:
        """On ``run-jit``, take each item's interpreter meter snapshot."""
        if self.engine != "jit":
            return
        for item in self.items:
            machine = Machine(link(item.modules, item.config, item.program.entry))
            try:
                machine.start(item.program.entry[0], item.program.entry[1], *item.program.args)
                machine.run()
            except ReproError as fault:
                self.outcome.fail(f"{item.label} (interpreter reference): {type(fault).__name__}: {fault}")
                continue
            item.reference = machine.counter.snapshot()

    # -- one operation -------------------------------------------------------

    def run_op(self, item: Item) -> tuple[float, Machine] | None:
        """Run *item* once; record any failure; return (seconds, machine)."""
        self.outcome.attempted += 1
        program = item.program
        try:
            begin = time.perf_counter()
            machine = Machine(link(item.modules, item.config, program.entry))
            if self.engine == "jit":
                install_jit(machine)
            else:
                machine.attach_tracer(TraceRecorder(capacity=256))
            machine.start(program.entry[0], program.entry[1], *program.args)
            results = machine.run()
            elapsed = time.perf_counter() - begin
        except (ReproError, JitRefusal) as fault:
            self.outcome.fail(f"{item.label}: {type(fault).__name__}: {fault}")
            return None
        if tuple(results) != program.expect_results:
            self.outcome.fail(f"{item.label}: results {results}, expected {list(program.expect_results)}")
        elif program.expect_output and tuple(machine.output) != program.expect_output:
            self.outcome.fail(f"{item.label}: output {machine.output}, expected {list(program.expect_output)}")
        elif item.reference is not None and machine.counter.snapshot() != item.reference:
            drift = {
                key: (value, item.reference.get(key))
                for key, value in machine.counter.snapshot().items()
                if value != item.reference.get(key)
            }
            self.outcome.fail(f"{item.label}: meters differ from the interpreter's: {drift}")
        return elapsed, machine

    # -- measurement ---------------------------------------------------------

    def measure(self, seconds: float, tracer: Tracer | None = None, on_machine=None) -> Phase:
        """Whole passes over the mix until *seconds* of wall time are used."""
        phase = Phase()
        start = time.perf_counter()
        while True:
            run = Pass()
            speed = HostSpeed()
            cycles = 0
            for item in self.items:
                if tracer is not None:
                    tracer.request(f"{item.label}#{phase.passes}")
                with tracer.open("bench.op") if tracer is not None else nullcontext():
                    done = self.run_op(item)
                if done is None:
                    continue
                elapsed, machine = done
                run.parts[item.label] = (1, elapsed, machine.steps)
                cycles += machine.counter.cycles
                if on_machine is not None:
                    on_machine(machine)
                speed.sample()
            if phase.passes == 0:
                self.sim_cycles = cycles
            run.scales = dict(zip(run.parts, speed.scales()))
            phase.runs.append(run)
            if time.perf_counter() - start >= seconds:
                return phase

    # -- the traced run ------------------------------------------------------

    def layers(self, seconds: float) -> tuple[dict[str, float], Tracer]:
        """Half the time untraced, half traced, then one counted pass."""
        untraced = self.measure(seconds / 2)
        traced, tracer = self.traced_phase(seconds / 2)
        counts, counter = self.count_pass()
        if counts["observer_bailouts"]:
            # An observer pins the JIT to the interpreter (docs/jit.md).
            self.outcome.fail(f"jit: {counts['observer_bailouts']} observer bailout(s) in the traced run")
        return self.layer_metrics(untraced, traced, tracer, counts, counter), tracer

    def traced_phase(self, seconds: float) -> tuple[Phase, Tracer]:
        """Spans at the public boundaries an operation crosses."""
        tracer = Tracer()
        tracer.span(machine_module.Machine, "run", "interp.run")
        tracer.span(JitEngine, "run", "jit.run")
        # This module's own ``install_jit``/``link`` names: the calls the
        # harness makes for every operation.
        tracer.span(sys.modules[__name__], "install_jit", "jit.install")
        tracer.span(sys.modules[__name__], "link", "lang.link")
        try:
            phase = self.measure(seconds, tracer)
        finally:
            tracer.restore()
        return phase, tracer

    def count_pass(self) -> tuple[dict[str, float], Tracer]:
        """One pass with per-instruction layers counted and inputs kept."""
        tracer = Tracer()
        totals = dict.fromkeys(COUNT_KEYS, 0)

        def collect(machine: Machine) -> None:
            add_machine_counts(totals, machine)

        count_layers(tracer)
        try:
            self.measure(0.0, on_machine=collect)
        finally:
            tracer.restore()
        return totals, tracer

    def layer_metrics(self, untraced: Phase, traced: Phase, tracer: Tracer, counts: dict, counter: Tracer) -> dict[str, float]:
        """The per-layer figures of a ``--trace 1`` run, per pass of the mix."""
        per_pass = 1.0 / traced.passes
        selfs = tracer.self_seconds()
        out = replayed_ns(counter)
        interp_steps = counts["interp_steps"]
        out.update(
            {
                "lang.compile_s": median([p["compile"] for p in self.setup_parts]),
                "lang.link_s": median([p["link"] for p in self.setup_parts]),
                "interp.run_s": selfs.get("interp.run", 0.0) * per_pass,
                "interp.steps": interp_steps,
                "interp.ns_per_step": (
                    selfs.get("interp.run", 0.0) * per_pass * 1e9 / interp_steps if interp_steps else 0.0
                ),
                "jit.compile_s": selfs.get("jit.install", 0.0) * per_pass,
                "jit.run_s": selfs.get("jit.run", 0.0) * per_pass,
                "obs.trace_overhead": traced.best()[1] / untraced.best()[1] - 1.0,
            }
        )
        out.update(machine_layer_counts(counts, counter))
        return out


def count_layers(tracer: Tracer) -> None:
    """Count the public functions entered once per modelled instruction."""
    tracer.count(CycleCounter, "record", "machine.meter")
    tracer.count(Memory, "region_of", "machine.region")
    tracer.count(machine_module, "decode", "isa.decode")
    tracer.count(AVHeap, "allocate", "alloc.allocate")
    tracer.count(BankFile, "read", "banks.read")
    tracer.count(BankFile, "write", "banks.write")


def add_machine_counts(totals: dict, machine: Machine) -> None:
    """Add one machine's modelled layer counters to *totals*."""
    totals["steps"] += machine.steps
    totals["mem_refs"] += machine.counter.memory_references
    cache = machine.linkage_cache
    if cache is not None:
        totals["linkage_hits"] += cache.hits
        totals["linkage_misses"] += cache.misses
    heap = machine.image.av_heap or machine.image.first_fit
    if heap is not None:
        totals["allocations"] += heap.stats.allocations
        totals["replenishments"] += heap.stats.replenishments
    if machine.bankfile is not None:
        stats = machine.bankfile.stats
        totals["bank_xfers"] += stats.xfers
        totals["bank_overflows"] += stats.overflows
        totals["words_spilled"] += stats.words_spilled
    if machine.rstack is not None:
        totals["return_hits"] += machine.rstack.stats.hits
        totals["return_misses"] += machine.rstack.stats.misses
    engine = machine.engine
    if engine is None:
        totals["interp_steps"] += machine.steps
        return
    stats = engine.stats
    totals["interp_steps"] += stats.deopt_steps
    totals["blocks"] += engine.cache.compiled_blocks
    for name in ("cells_built", "deopts", "deopt_steps", "sites_demoted", "observer_bailouts"):
        totals[name] += getattr(stats, name)


def machine_layer_counts(counts: dict, counter: Tracer) -> dict[str, float]:
    lookups = counts["linkage_hits"] + counts["linkage_misses"]
    returns = counts["return_hits"] + counts["return_misses"]
    return {
        "machine.meter_events": counter.counts.get("machine.meter", 0),
        "machine.mem_refs": counts["mem_refs"],
        "isa.decodes": counter.counts.get("isa.decode", 0),
        "mesa.linkage_hits": counts["linkage_hits"],
        "mesa.linkage_misses": counts["linkage_misses"],
        "mesa.linkage_hit_rate": counts["linkage_hits"] / lookups if lookups else 0.0,
        "alloc.allocations": counts["allocations"],
        "alloc.replenishments": counts["replenishments"],
        "banks.xfers": counts["bank_xfers"],
        "banks.overflows": counts["bank_overflows"],
        "banks.words_spilled": counts["words_spilled"],
        "ifu.return_hit_rate": counts["return_hits"] / returns if returns else 0.0,
        "jit.blocks": counts["blocks"],
        "jit.cells_built": counts["cells_built"],
        "jit.deopts": counts["deopts"],
        "jit.deopt_steps": counts["deopt_steps"],
        "jit.sites_demoted": counts["sites_demoted"],
        "jit.observer_bailouts": counts["observer_bailouts"],
    }


def _alloc_free(heap: AVHeap, *args, **kwargs) -> None:
    heap.free(heap.allocate(*args, **kwargs))


def replayed_ns(counter: Tracer) -> dict[str, float]:
    """ns/op of the per-instruction layers, timed over captured inputs.

    Runs after :meth:`Tracer.restore`, so the unwrapped functions are
    timed.  The meter replays into a scratch counter; the AV heap is
    timed as allocate+free pairs on the heaps that served the pass.
    """
    captured = counter.captured
    scratch = CycleCounter()
    reads, writes = captured.get("banks.read", []), captured.get("banks.write", [])
    bank_ops = len(reads) + len(writes)
    return {
        "machine.meter_ns_per_op": time_per_op(
            CycleCounter.record,
            [((scratch, *args[1:]), kwargs) for args, kwargs in captured.get("machine.meter", [])],
        ),
        "machine.region_ns_per_op": time_per_op(Memory.region_of, captured.get("machine.region", [])),
        "isa.decode_ns_per_op": time_per_op(machine_module.decode, captured.get("isa.decode", [])),
        "alloc.av_ns_per_op": time_per_op(_alloc_free, captured.get("alloc.allocate", [])) / 2,
        "banks.ns_per_op": (
            time_per_op(BankFile.read, reads) * len(reads)
            + time_per_op(BankFile.write, writes) * len(writes)
        ) / bank_ops if bank_ops else 0.0,
    }
