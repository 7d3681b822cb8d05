"""Self-tests of the benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from runmix import Item, Program, RunMix  # noqa: E402
from spans import Tracer  # noqa: E402

from repro.interp.machineconfig import MachineConfig  # noqa: E402
from repro.workloads.programs import program  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fib_item(expect: tuple[int, ...] = (89,), label: str = "fib") -> Item:
    fib = program("fib")
    return Item(
        program=Program(label, fib.sources, fib.entry, fib.args, expect),
        preset="i2",
        config=MachineConfig.i2(),
    )


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_planted_wrong_answer_is_counted_not_raised():
    mix = RunMix(seed=1, engine="interp", items=[_fib_item(expect=(90,), label="planted"), _fib_item()])
    mix.setup()
    phase = mix.measure(0.0)
    assert phase.best()[0] == 2
    assert mix.outcome.attempted == 2
    assert mix.outcome.failed == 1
    assert "planted@i2: results [89], expected [90]" in mix.outcome.failures[0]


def test_planted_meter_drift_is_counted_not_raised():
    item = _fib_item()
    mix = RunMix(seed=1, engine="jit", items=[item])
    mix.setup()
    mix.prepare()
    mix.measure(0.0)
    assert mix.outcome.failed == 0
    item.reference = dict(item.reference, cycles=item.reference["cycles"] + 1)
    mix.measure(0.0)
    assert mix.outcome.attempted == 2
    assert mix.outcome.failed == 1
    assert "meters differ from the interpreter's" in mix.outcome.failures[0]


def test_declared_names_match_the_code_and_the_pattern():
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(PER_LAYER)
    for section in ("end_to_end", "per_layer"):
        for metric in DECLARED[section]:
            assert (metric["unit"], metric["better"]) == {**END_TO_END, **PER_LAYER}[metric["name"]]
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.open("outer"):
        time.sleep(0.02)
        with tracer.open("inner"):
            time.sleep(0.02)
    selfs = tracer.self_seconds()
    assert tracer.spans[1][3] == 0  # inner's parent is outer
    assert 0.015 < selfs["outer"] < 0.035
    assert 0.015 < selfs["inner"] < 0.035


def test_printed_names_equal_declared_on_two_seeds():
    for trace, declared in ((0, DECLARED["end_to_end"]), (1, DECLARED["per_layer"])):
        for seed in (3, 4):
            done = _run(
                ["--workload", "run-interp", "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                ROOT,
            )
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert list(result["metrics"]) == [m["name"] for m in declared]
            assert result["failed"] == 0 and result["correct"] is True
            assert "provenance: " in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "run-interp", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
