"""The repo benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload run-interp --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric.  Host times are the
fastest of repeated identical work, scaled to an uncontended reference
host by a canary run alongside (``harness.HostSpeed``); the unscaled
figures are printed too.  ``--trace 1`` runs the
workload half untraced and half traced, then one counted pass, and
prints every per-layer metric (see ``metrics.py`` for the names and the
prediction table).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the provenance, the sample counts, ``error_rate`` and each failure
by name.  The traced run also writes its spans to
``.perfbench/<workload>-seed<seed>-spans.json``.

Without ``src/repro`` beside this directory the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("run-interp", "run-jit", "serve-inproc")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser


def build_workload(name: str, seed: int):
    if name in ("run-interp", "run-jit"):
        from runmix import RunMix

        return RunMix(seed, name.removeprefix("run-"))
    from serving import ServeInproc

    return ServeInproc(seed)


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, object, object]:
    """Run one workload; return (metric values, workload, tracer or None)."""
    from harness import median, peak_rss_mb

    workload = build_workload(name, seed)
    raw_setups, setups = workload.setup_repeated()
    workload.prepare()
    if trace:
        values, tracer = workload.layers(seconds)
        return values, workload, tracer
    phase = workload.measure(seconds)
    ops, seconds, steps = phase.best()
    values = {
        "setup_s": median(setups),
        "requests_per_s": ops / seconds,
        "steps_per_s": steps / seconds,
        "sim_cycles": workload.sim_cycles,
        "peak_rss_mb": peak_rss_mb(),
    }
    _raw_ops, raw_seconds, raw_steps = phase.best(scaled=False)
    print(
        f"samples: setup_s is the median of {len(setups)} set-ups; the rates "
        f"take each operation's fastest run over {phase.passes} passes "
        f"({ops} operations)"
    )
    print(
        f"unscaled: setup_s {median(raw_setups)} s, requests_per_s {ops / raw_seconds} 1/s, "
        f"steps_per_s {raw_steps / raw_seconds} 1/s; host scale "
        f"{min(min(run.scales.values()) for run in phase.runs):.3f}-"
        f"{max(max(run.scales.values()) for run in phase.runs):.3f}"
    )
    return values, workload, None


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from harness import provenance
    from metrics import END_TO_END, OMITTED, PER_LAYER, PREDICTIONS, filled

    prov = provenance(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    values, workload, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    outcome = workload.outcome
    if tracer is not None:
        out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.dump(out, prov)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        for layer, metric, moves, flat in PREDICTIONS:
            print(f"predict: {layer} -> {metric} on {moves}" + (f"; flat on {flat}" if flat else ""))
    for names, reason in OMITTED.items():
        print(f"omitted: {names}: {reason}")
    declared = PER_LAYER if tracer is not None else END_TO_END
    metrics = filled(values, declared)
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']} {entry['unit']}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"error_rate: {error_rate} ({outcome.failed}/{outcome.attempted})")
    for failure in outcome.failures[:50]:
        print(f"FAILED {failure}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
