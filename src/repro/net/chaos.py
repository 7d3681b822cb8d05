"""The net chaos families: transport faults over a split cluster, on I1-I4.

The chaos engine (:mod:`repro.faults.chaos`) lifted to the wire: under
a seeded plan of ``net_*`` injections — drops, duplicates, delays,
partitions — a cluster must either **RECOVER** (the retry discipline
re-sends, dedup keeps execution at-most-once, and the results equal
the program's reference) or **TRAP** cleanly (the root request faults
with a named trap and a detail saying what was lost).  Silent
corruption — a wrong answer, a hung pump, a request executed twice —
is non-conformance.  This module holds the ``net_*`` plan table and
two case runners, packaged as the :data:`NET`, :data:`MIGRATE` and
:data:`PROCESS` families.
"""

from __future__ import annotations

import random
from contextlib import suppress
from dataclasses import replace

from repro.errors import LostRequest, NetError, TrapError
from repro.faults.chaos import ChaosError, Family, Outcome, OutcomeClass
from repro.faults.plan import FaultPlan, Injection, on_event
from repro.interp.processes import ProcessStatus
from repro.net.cluster import DEFAULT_MAX_RETRIES, Cluster
from repro.net.migrate import MigrateError
from repro.net.transport import InProcessTransport, NetFaultPolicy
from repro.workloads.programs import program

NET_CHAOS_SCHEMA = "repro-net-chaos/1"

#: The split program every net case runs: Main on shard 0, Math on
#: shard 1, so every Math call is a Remote XFER exposed to the plan.
CASE_PROGRAM = "mathlib"
CASE_PINS = {"Main": 0, "Math": 1}
CASE_SHARDS = 2
#: Shards in a migration case: the split pair plus a spare to adopt.
MIGRATION_SHARDS = 3


def _plan_net_partition(rng: random.Random) -> tuple[Injection, ...]:
    """A partition mid-conversation, plus a drop and a duplicate."""
    return (
        Injection(
            on_event("net.send", rng.randrange(2, 20)),
            "net_partition",
            detail=f"0->1:{rng.randrange(2, 6)}",
        ),
        Injection(on_event("net.send", rng.randrange(20, 40)), "net_drop"),
        Injection(on_event("net.send", rng.randrange(40, 55)), "net_dup"),
    )


def _plan_net_drop_storm(rng: random.Random) -> tuple[Injection, ...]:
    """Several scattered drops; retries must cover every one."""
    ordinals = sorted(rng.sample(range(2, 55), 4))
    return tuple(
        Injection(on_event("net.send", ordinal), "net_drop")
        for ordinal in ordinals
    )


def _plan_net_dup_delay(rng: random.Random) -> tuple[Injection, ...]:
    """Duplicates and delays; dedup must keep execution at-most-once."""
    first, second = sorted(rng.sample(range(2, 50), 2))
    return (
        Injection(on_event("net.send", first), "net_dup"),
        Injection(
            on_event("net.send", second),
            "net_delay",
            detail=str(rng.randrange(2, 5)),
        ),
    )


#: Transmissions one request may make before its caller faults: the
#: initial send plus DEFAULT_MAX_RETRIES retransmissions (the contract
#: Shard.retry documents and test_net_transport pins).
RETRY_BUDGET_SENDS = 1 + DEFAULT_MAX_RETRIES
#: Consecutive drops in the blackhole plan: the full transmission
#: budget plus slack for frames of other conversations that may share
#: the targeted send ordinals.  Derived, not hard-coded, so a changed
#: retry default cannot quietly turn the blackhole into a recoverable
#: drop storm.
BLACKHOLE_DROPS = RETRY_BUDGET_SENDS + 2


def _plan_net_blackhole(rng: random.Random) -> tuple[Injection, ...]:
    """Swallow one call *and every retry of it*: enough consecutive
    drops (:data:`BLACKHOLE_DROPS` — the ``1 + max_retries``
    transmission budget, plus slack) outlast the retry budget, so the
    caller must trap with ``lost_request`` — never hang, never answer
    wrong."""
    start = rng.randrange(2, 40)
    return tuple(
        Injection(on_event("net.send", start + offset), "net_drop")
        for offset in range(BLACKHOLE_DROPS)
    )


NET_PLANS = {
    "net_partition": _plan_net_partition,
    "net_drop_storm": _plan_net_drop_storm,
    "net_dup_delay": _plan_net_dup_delay,
    "net_blackhole": _plan_net_blackhole,
}


def make_net_plan(name: str, seed: int) -> FaultPlan:
    """Instantiate canned net plan *name*, seeded and reproducible."""
    try:
        generator = NET_PLANS[name]
    except KeyError:
        raise NetError(
            f"unknown net chaos plan {name!r} (known: {', '.join(sorted(NET_PLANS))})"
        ) from None
    rng = random.Random(f"{name}:{seed}")
    return FaultPlan(name=name, seed=seed, injections=generator(rng))


def run_net_case(
    preset: str, plan: FaultPlan, migrate_at: int | None = None, engine: str = "interp"
) -> Outcome:
    """One in-process cluster run of the split case program under *plan*.

    With *migrate_at*, the cluster gets a spare shard, and at the first
    pump tick >= *migrate_at* where the root sits BLOCKED on its remote
    reply the root migrates there (exclusive mode, so the sweep is
    uniform across I1-I4), racing whatever the plan is doing to the
    wire.  ``wire["migrated"]`` then records whether it moved.
    """
    prog = program(CASE_PROGRAM)
    policy = NetFaultPolicy(plan)
    cluster = Cluster(
        list(prog.sources),
        shards=CASE_SHARDS if migrate_at is None else MIGRATION_SHARDS,
        config=preset,
        pins=CASE_PINS,
        transport=InProcessTransport(policy=policy),
        engine=engine,
    )
    ticket = cluster.submit(prog.entry[0], prog.entry[1], *prog.args)
    migrated = False
    while cluster.pump_tick():
        if (
            migrate_at is not None
            and not migrated
            and cluster.ticks >= migrate_at
            and ticket.process.status is ProcessStatus.BLOCKED
        ):
            # The spare may not be idle at this tick (a duplicated call
            # can be executing there); then try again at the next one.
            with suppress(MigrateError):
                cluster.migrate(ticket, MIGRATION_SHARDS - 1, mode="exclusive")
                migrated = True
    if not ticket.done:  # pragma: no cover - pump_tick is False only at quiescence
        raise NetError(f"case ended with ticket status {ticket.status}")
    fault = ticket.process.fault or {}
    wire = cluster.transport.stats.as_dict()
    if migrate_at is not None:
        wire["migrated"] = migrated
    done = ticket.status is ProcessStatus.DONE
    return Outcome(
        klass=OutcomeClass.RECOVERED if done else OutcomeClass.TRAPPED,
        trap=fault.get("trap", ""),
        pc=fault.get("pc", -1),
        proc=fault.get("proc", ""),
        detail=fault.get("detail", ""),
        results=ticket.results,
        ticks=cluster.ticks,
        meters=cluster.meters(),
        injections_fired=len(policy.fired),
        wire=wire,
    )


def run_net_case_process(preset: str, plan: FaultPlan) -> Outcome:
    """One run of the split case program across real worker processes.

    The same seeded plan drives the front door's fault router instead
    of the in-process transport: every routed frame is a ``net.send``,
    so drops, duplicates, delays, and partitions hit real sockets
    between real OS processes.
    """
    from repro.net.procserve import ProcessCluster

    prog = program(CASE_PROGRAM)
    with ProcessCluster(
        list(prog.sources),
        shards=CASE_SHARDS,
        config=preset,
        pins=CASE_PINS,
        fault_plan=plan,
        timeout_s=0.25,
        tick_seconds=0.02,
    ) as cluster:
        try:
            outcome = Outcome(
                OutcomeClass.RECOVERED,
                results=cluster.call(prog.entry[0], prog.entry[1], *prog.args),
            )
        except TrapError as fault:
            outcome = Outcome(
                OutcomeClass.TRAPPED, trap=fault.trap, pc=fault.pc,
                proc=fault.proc, detail=fault.detail,
            )
        except LostRequest as fault:
            outcome = Outcome(
                OutcomeClass.TRAPPED, trap="lost_request", detail=str(fault)
            )
        outcome.injections_fired = len(cluster.policy.fired)
        outcome.wire = cluster.stats.as_dict()
        outcome.meters = cluster.meters()
    return outcome


# ---------------------------------------------------------------------------
# The families
# ---------------------------------------------------------------------------


def _make_plan(name, program, refs, seed) -> FaultPlan:
    return make_net_plan(name, seed)


def _run(program, preset, plan, engine) -> Outcome:
    return run_net_case(preset, plan, engine=engine)


def _run_migrating(program, preset, plan, engine) -> Outcome:
    """Migrate the root at a pump tick seeded by (plan, seed)."""
    migrate_at = random.Random(f"migrate:{plan.name}:{plan.seed}").randrange(1, 7)
    return run_net_case(preset, plan, migrate_at, engine)


def _run_process(program, preset, plan, engine) -> Outcome:
    if engine != "interp":
        raise ChaosError(f"engine {engine!r} does not reach worker processes: "
                         "they build machines from a spec with no engine slot")
    return run_net_case_process(preset, plan)


#: A second seeded run meters identically, faults and all: the
#: transport's fault policy is a pure function of the send stream.
NET = Family(
    name="net",
    schema=NET_CHAOS_SCHEMA,
    plans=tuple(NET_PLANS),
    make_plan=_make_plan,
    run=_run,
    programs=(CASE_PROGRAM,),
    rerun_meters=True,
    endings=frozenset({OutcomeClass.RECOVERED, OutcomeClass.TRAPPED}),
)

#: As :data:`NET`, but every case migrates the root mid-flight and must
#: still recover.  Its plans are the shapes that meet the forwarding
#: tombstones (a late or duplicated reply chases the process; a
#: retransmission bounces off the call forward); ``net_blackhole`` ends
#: in a clean trap, which is orthogonal to migration.
MIGRATE = replace(
    NET,
    name="migrate",
    plans=("net_partition", "net_dup_delay"),
    run=_run_migrating,
    endings=frozenset({OutcomeClass.RECOVERED}),
)

#: Real sockets between OS processes: per-outcome conformance only.
#: Frame arrival order follows host scheduling, not the plan alone, so
#: two runs may legally retry (and meter) differently; per-activation
#: meter conformance is pinned in tests/test_net_proc.py.
PROCESS = replace(
    NET,
    name="process",
    run=_run_process,
    presets=("i2",),
    presets_agree=False,
    rerun_meters=False,
)
