"""Metric declarations and the prediction table.

``BENCHMARK.json`` declares the same names; ``test_perfbench.py``
checks that the two agree.  Per-layer seconds are per pass of the mix
(``run-*``) or per batch of requests (``serve-*``), in this host's
seconds (not scaled like the end-to-end times, so they compare within
one traced run); counts are over one counted pass or batch, so they
repeat exactly for a seed.
"""

from __future__ import annotations

#: name -> (unit, better); reported with ``--trace 0`` on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "steps_per_s": ("1/s", "higher"),
    "sim_cycles": ("cycles", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); reported with ``--trace 1`` on every workload
#: (0 where the workload does not enter the layer).
PER_LAYER = {
    "lang.compile_s": ("s", "lower"),
    "lang.link_s": ("s", "lower"),
    "interp.run_s": ("s", "lower"),
    "interp.steps": ("count", "lower"),
    "interp.ns_per_step": ("ns", "lower"),
    "machine.meter_events": ("count", "lower"),
    "machine.meter_ns_per_op": ("ns", "lower"),
    "machine.mem_refs": ("count", "lower"),
    "machine.region_ns_per_op": ("ns", "lower"),
    "isa.decodes": ("count", "lower"),
    "isa.decode_ns_per_op": ("ns", "lower"),
    "mesa.linkage_hits": ("count", "higher"),
    "mesa.linkage_misses": ("count", "lower"),
    "mesa.linkage_hit_rate": ("ratio", "higher"),
    "alloc.allocations": ("count", "lower"),
    "alloc.replenishments": ("count", "lower"),
    "alloc.av_ns_per_op": ("ns", "lower"),
    "banks.xfers": ("count", "lower"),
    "banks.overflows": ("count", "lower"),
    "banks.words_spilled": ("count", "lower"),
    "banks.ns_per_op": ("ns", "lower"),
    "ifu.return_hit_rate": ("ratio", "higher"),
    "jit.compile_s": ("s", "lower"),
    "jit.run_s": ("s", "lower"),
    "jit.blocks": ("count", "higher"),
    "jit.cells_built": ("count", "higher"),
    "jit.deopts": ("count", "lower"),
    "jit.deopt_steps": ("count", "lower"),
    "jit.sites_demoted": ("count", "lower"),
    "jit.observer_bailouts": ("count", "lower"),
    "sched.run_s": ("s", "lower"),
    "sched.runs": ("count", "lower"),
    "sched.switches": ("count", "lower"),
    "sched.blocks": ("count", "lower"),
    "net.admit_s": ("s", "lower"),
    "net.pump_ticks": ("count", "lower"),
    "net.pump_s": ("s", "lower"),
    "net.deliver_s": ("s", "lower"),
    "net.messages": ("count", "lower"),
    "net.wire_words": ("count", "lower"),
    "net.wire_encode_ns_per_op": ("ns", "lower"),
    "net.wire_decode_ns_per_op": ("ns", "lower"),
    "net.backpressure_stalls": ("count", "lower"),
    "net.retries": ("count", "lower"),
    "net.p50_ticks": ("ticks", "lower"),
    "net.p99_ticks": ("ticks", "lower"),
    "net.p50_ms": ("ms", "lower"),
    "net.p95_ms": ("ms", "lower"),
    "net.balance_observe_s": ("s", "lower"),
    "net.migrations": ("count", "lower"),
    "net.migrate_ms_per_op": ("ms", "lower"),
    "net.refusals": ("count", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
}

#: Layer metrics -> the end-to-end metric each should move, the
#: workloads where it should move it, and those where no move is
#: predicted.  Later changes cite these names.
PREDICTIONS = (
    ("lang.*", "setup_s", "all", ""),
    (
        "interp.*, machine.*, isa.*, mesa.*, alloc.*, banks.*, ifu.*",
        "steps_per_s; requests_per_s",
        "run-interp; serve-inproc",
        "run-jit (apart from the I4 bank tails)",
    ),
    ("alloc.*, banks.*, ifu.* counts", "sim_cycles", "all", ""),
    ("jit.*", "setup_s, steps_per_s", "run-jit", "run-interp, serve-*"),
    ("sched.*", "requests_per_s", "serve-inproc", "run-*"),
    (
        "net.admit_s, net.pump_*, net.deliver_s, net.messages, net.wire_*, "
        "net.backpressure_stalls, net.retries",
        "requests_per_s",
        "serve-inproc",
        "run-*",
    ),
    (
        "net.balance_observe_s, net.migrations, net.migrate_ms_per_op, net.refusals",
        "requests_per_s, net.p95_ms, net.p99_ticks",
        "serve-inproc",
        "run-*",
    ),
    ("obs.trace_overhead", "(the traced run's own cost)", "all", ""),
)

#: Metrics the issue named that this benchmark does not report, and why.
OMITTED = {
    "p50_ticks, p99_ticks, p50_ms, p99_ms (end to end)": (
        "every end-to-end metric must be reported on every workload, and "
        "request latency exists only on serve-inproc (program runs on run-* "
        "are not requests that wait): the per-layer net.p50_ticks, "
        "net.p99_ticks, net.p50_ms and net.p95_ms report it there; p95 "
        "instead of p99 because a pass has 600 latency samples and p99 "
        "would have fewer than ten beyond it"
    ),
    "error_rate": (
        "always 0 at a correct commit, and end-to-end metrics must never be "
        "0; it is failed/attempted of the result line, printed as error_rate"
    ),
    "serve-proc workload; net.frontdoor_s, net.worker_wait_ms, "
    "net.frame_encode_ns_per_op, net.frame_feed_ns_per_op, "
    "net.frontdoor_inflight_max, bench.gen_late_ms": (
        "dropped with the serve-proc workload: over seeds 1-4 at 150 req/s "
        "its open-loop p50 read 9.6-76 ms and p99 156-338 ms, and closed-loop "
        "requests_per_s 217-269, far outside any bound the benchmark may set"
    ),
}


def filled(values: dict[str, float], declared: dict[str, tuple[str, str]]) -> dict[str, dict]:
    """``{"name": {"value": v, "unit": u}}`` for every declared name.

    A name the workload did not measure reads 0: it does not enter
    that layer.
    """
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, (unit, _better) in declared.items()
    }
