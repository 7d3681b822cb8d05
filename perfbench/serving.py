"""The ``serve-inproc`` workload.

It is the ``repro serve --autoscale`` shape: 3 in-process shards with
``Main`` pinned to shard 0 and ``Fib`` to shard 1, the seeded skewed
90/10 hot-key mix, the tick-paced pump and the ``Balancer``.  The loop
is closed: ``Server`` admits from a fixed queue at its queue capacity
and batch size.

One pass serves the seed's ``UNIT_REQUESTS`` requests with one
``serve()`` call on a freshly built cluster, so every pass repeats the
same modelled work: its aggregate meters must equal those of the
reference pass served before measuring.
"""

from __future__ import annotations

import time

from repro.interp.processes import ProcessStatus, Scheduler
from repro.lang import compiler as compiler_module
from repro.lang import linker as linker_module
from repro.net import wire
from repro.net.balance import Balancer
from repro.net.cluster import Cluster
from repro.net.migrate import aggregate_meters
from repro.net.serve import SERVICE_SOURCES, Server, generate_skewed_workload
from repro.net.shard import Shard

from harness import HostSpeed, Outcome, Pass, Phase, percentile, repeat_setup
from runmix import COUNT_KEYS, add_machine_counts, count_layers, machine_layer_counts, replayed_ns
from spans import Tracer, time_per_op

SHARDS = 3
PINS = {"Main": 0, "Fib": 1}
PRESET = "i2"
QUEUE_CAPACITY = 16
BATCH_SIZE = 8
BALANCER = {"high_water": 4, "low_water": 2, "patience": 2, "budget": 2}
#: Requests per pass.  The mix's modelled work per request varies from
#: seed to seed (fib(6..12) carries it): over 300 requests a pass's
#: modelled cycles ranged 2.90M-3.64M across seeds 11-20, and
#: requests_per_s with them; twice the requests halve that variance.
UNIT_REQUESTS = 600
#: Passes every run makes, however long they take ...
MIN_PASSES = 2
#: ... and each half of a traced run.
TRACED_MIN_PASSES = 1


class _Clock:
    """Wall-clock latency per request, stamped from outside the cluster.

    ``submit`` and ``pump_tick`` are wrapped on the cluster *instance*
    and call through the class, so a span wrap of the class method still
    sees every call.  A request's latency runs from its submission to the
    end of the tick that completed it; its answer is checked there.

    The clock also splits a ``serve()`` call into rounds (admission, one
    tick, balancing, harvest), which repeat identically in every pass of
    a seed.  Between rounds it runs the host-speed canary; neither the
    canary nor the clock's own bookkeeping counts in a round's seconds,
    though both delay the latencies by a few percent.
    """

    def __init__(self, cluster: Cluster, outcome: Outcome, expected: dict[tuple, int]) -> None:
        self.outcome = outcome
        self.expected = expected
        self.pending: list[tuple] = []
        self.latencies_ms: list[float] = []
        self.speed = HostSpeed()
        #: Seconds of each round so far, and when the current one began.
        self.rounds: list[float] = []
        self.mark = 0.0

        def submit(module: str, proc: str, *args: int):
            ticket = Cluster.submit(cluster, module, proc, *args)
            self.pending.append((ticket, time.perf_counter()))
            return ticket

        def pump_tick() -> bool:
            progress = Cluster.pump_tick(cluster)
            self.after_tick()
            return progress

        cluster.submit = submit
        cluster.pump_tick = pump_tick

    def after_tick(self) -> None:
        """Close the round, settle what the tick completed, run the canary."""
        now = time.perf_counter()
        self.rounds.append(now - self.mark)
        still = []
        for ticket, submitted in self.pending:
            if not ticket.done:
                still.append((ticket, submitted))
            elif ticket.status is ProcessStatus.DONE:
                self._settle(ticket, (now - submitted) * 1e3)
        self.pending = still
        self.speed.sample()
        self.mark = time.perf_counter()

    def _settle(self, ticket, latency_ms: float) -> None:
        self.latencies_ms.append(latency_ms)
        want = self.expected.get(ticket.args)
        results = ticket.results
        if not results or results[-1] != want:
            op, a, b = ticket.args
            self.outcome.fail(f"request op={op} a={a} b={b}: results {results}, expected {want}")


class ServeInproc:
    """The in-process autoscaling serving workload."""

    def __init__(self, seed: int) -> None:
        self.workload = generate_skewed_workload(seed, UNIT_REQUESTS)
        self.expected = {(r.op, r.a, r.b): r.expected for r in self.workload}
        self.outcome = Outcome()
        #: Modelled cycles of one pass, summed over the shards.
        self.sim_cycles = 0
        self.reference: dict | None = None

    def _build(self, outcome: Outcome | None = None) -> Cluster:
        cluster = Cluster(list(SERVICE_SOURCES), shards=SHARDS, config=PRESET, pins=dict(PINS))
        cluster.bench_clock = _Clock(cluster, outcome or self.outcome, self.expected)
        cluster.bench_server = Server(
            cluster,
            queue_capacity=QUEUE_CAPACITY,
            batch_size=BATCH_SIZE,
            balancer=Balancer(**BALANCER),
            pump_ticks_per_round=1,
        )
        return cluster

    def _setup_once(self, speed: HostSpeed) -> list[float]:
        begin = time.perf_counter()
        self._build()
        seconds = time.perf_counter() - begin
        speed.sample()
        return [seconds]

    def setup_repeated(self) -> tuple[list[float], list[float]]:
        return repeat_setup(self._setup_once)

    def prepare(self) -> None:
        """Serve the reference pass; its failures go to a scratch ledger
        (every measured pass repeats them)."""
        reference = self._build(Outcome())
        reference.bench_server.serve(self.workload)
        self.reference = aggregate_meters(reference.meters())
        self.sim_cycles = self.reference["counter"]["cycles"]

    def serve_pass(self, cluster: Cluster):
        """Serve the unit on *cluster*; record failures; return the report
        and the seconds of each round plus the tail after the last tick."""
        clock = cluster.bench_clock
        clock.mark = time.perf_counter()
        report = cluster.bench_server.serve(self.workload)
        tail = time.perf_counter() - clock.mark
        self.outcome.attempted += len(self.workload)
        for _ in range(report.lost):
            self.outcome.fail(f"a request was lost ({report.lost} in the pass)")
        meters = aggregate_meters(cluster.meters())
        if meters != self.reference:
            drift = {
                key: (value, self.reference["counter"].get(key))
                for key, value in meters["counter"].items()
                if value != self.reference["counter"].get(key)
            }
            self.outcome.fail(f"cluster meters differ from the reference pass: {drift}")
        return report, clock.rounds + [tail]

    def measure(self, seconds: float, min_passes: int = MIN_PASSES) -> Phase:
        """Passes on fresh clusters until *seconds* are used (at least *min_passes*)."""
        phase = Phase()
        start = time.perf_counter()
        while phase.passes < min_passes or time.perf_counter() - start < seconds:
            cluster = self._build()
            report, timings = self.serve_pass(cluster)
            steps = aggregate_meters(cluster.meters())["steps"]
            # The requests and steps ride on the tail part: every pass
            # has the same rounds, so only the seconds differ.
            parts = {f"round{k}": (0, round_s, 0) for k, round_s in enumerate(timings[:-1])}
            parts["tail"] = (report.completed, timings[-1], steps)
            # A canary runs after every round; the tail takes the last
            # round's scale.
            clock = cluster.bench_clock
            scales = clock.speed.scales()
            phase.runs.append(Pass(parts, clock.latencies_ms, dict(zip(parts, scales + scales[-1:]))))
        return phase

    # -- the traced run ------------------------------------------------------

    def layers(self, seconds: float) -> tuple[dict[str, float], Tracer]:
        """Half the time untraced, half traced, then one counted pass."""
        untraced = self.measure(seconds / 2, min_passes=TRACED_MIN_PASSES)
        tracer = Tracer()
        tracer.span(compiler_module, "compile_program", "lang.compile")
        tracer.span(linker_module, "link", "lang.link")
        try:
            self._build()
        finally:
            tracer.restore()
        lang = tracer.self_seconds()
        tracer = Tracer()
        for owner, attr, name in (
            (Server, "serve", "net.admit"),
            (Cluster, "pump_tick", "net.pump"),
            (Cluster, "submit", "net.submit"),
            (Cluster, "migrate", "net.migrate"),
            (Shard, "deliver", "net.deliver"),
            (Scheduler, "run", "sched.run"),
            (Balancer, "observe", "net.balance_observe"),
            # The harness's own share of a round, so net.admit's self
            # time is the server's alone.
            (_Clock, "after_tick", "bench.clock"),
        ):
            tracer.span(owner, attr, name)
        try:
            traced = self.measure(seconds / 2, min_passes=TRACED_MIN_PASSES)
        finally:
            tracer.restore()

        # The counted pass.  The cluster is built after the wraps go in:
        # a machine may keep bound methods of the functions counted.
        counter = Tracer()
        count_layers(counter)
        counter.count(wire.Message, "encode", "net.encode")
        try:
            cluster = self._build()
            report, _timings = self.serve_pass(cluster)
        finally:
            counter.restore()
        counts = dict.fromkeys(COUNT_KEYS, 0)
        for shard in cluster.shards:
            add_machine_counts(counts, shard.machine)

        selfs = tracer.self_seconds()
        calls = tracer.span_counts()
        per_pass = 1.0 / traced.passes
        migrations = calls.get("net.migrate", 0)
        steps = counts["steps"]
        messages = [args for args, _kwargs in counter.captured.get("net.encode", [])]
        out = replayed_ns(counter)
        out.update(machine_layer_counts(counts, counter))
        out.update(
            {
                "lang.compile_s": lang.get("lang.compile", 0.0),
                "lang.link_s": lang.get("lang.link", 0.0),
                "interp.steps": counts["interp_steps"],
                # Scheduler.run drives step(): its self time is the
                # interpreter's time plus the per-step slice checks.
                "interp.ns_per_step": selfs.get("sched.run", 0.0) * per_pass * 1e9 / steps,
                "sched.run_s": selfs.get("sched.run", 0.0) * per_pass,
                "sched.runs": calls.get("sched.run", 0) * per_pass,
                "sched.switches": sum(s.scheduler.stats.switches for s in cluster.shards),
                "sched.blocks": sum(s.scheduler.stats.blocks for s in cluster.shards),
                "net.admit_s": selfs.get("net.admit", 0.0) * per_pass,
                "net.pump_ticks": report.ticks,
                "net.pump_s": selfs.get("net.pump", 0.0) * per_pass,
                "net.deliver_s": selfs.get("net.deliver", 0.0) * per_pass,
                "net.messages": cluster.transport.stats.sent,
                "net.wire_words": cluster.transport.stats.wire_words,
                "net.wire_encode_ns_per_op": time_per_op(wire.Message.encode, [(m, {}) for m in messages]),
                "net.wire_decode_ns_per_op": time_per_op(
                    wire.decode, [((message.encode(),), {}) for (message,) in messages]
                ),
                "net.backpressure_stalls": report.backpressure_stalls,
                "net.retries": report.retried,
                "net.p50_ticks": report.percentile(0.50),
                "net.p99_ticks": report.percentile(0.99),
                "net.p50_ms": percentile(untraced.fastest().latencies_ms, 0.50),
                "net.p95_ms": percentile(untraced.fastest().latencies_ms, 0.95),
                "net.balance_observe_s": selfs.get("net.balance_observe", 0.0) * per_pass,
                "net.migrations": report.migrations,
                "net.migrate_ms_per_op": (
                    tracer.total_seconds("net.migrate") * 1e3 / migrations if migrations else 0.0
                ),
                "net.refusals": cluster.bench_server.balancer.stats.refusals,
                "obs.trace_overhead": traced.best()[1] / untraced.best()[1] - 1.0,
            }
        )
        return out, tracer
