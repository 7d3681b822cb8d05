"""One chaos engine: every family shares one report shape and one check.

The machine, net, migrate and process families differ only in their
plan table, case runner, schema and contract; these tests pin what they
must share, and the CLI flags that pick a family.
"""

import json

import pytest

from repro.cli import main
from repro.faults.chaos import MACHINE, Outcome, OutcomeClass, run_chaos
from repro.net.chaos import MIGRATE, NET, PROCESS
from repro.workloads.programs import CORPUS

MATHLIB = CORPUS["mathlib"]


@pytest.mark.parametrize(
    "family, sweep",
    [
        (MACHINE, dict(programs=("fib",), seeds=1, plans=("av_empty", "trap_inject"))),
        (NET, dict(seeds=1, plans=("net_partition", "net_blackhole"))),
        (MIGRATE, dict(seeds=1, plans=("net_partition",))),
        (PROCESS, dict(seeds=1, plans=("net_partition",))),
    ],
    ids=lambda value: getattr(value, "name", ""),
)
def test_every_family_writes_one_report_shape(family, sweep):
    doc = json.loads(json.dumps(family.sweep(**sweep).to_dict()))
    assert doc["ok"] is True
    assert doc["schema"] == (
        "repro-chaos/1" if family is MACHINE else "repro-net-chaos/1"
    )
    assert set(doc) == {"schema", "ok", "cases", "skipped"}
    assert doc["cases"]
    for case in doc["cases"]:
        assert set(case) == {"program", "seed", "plan", "outcomes", "failures"}
        for outcome in case["outcomes"].values():
            assert set(outcome) == {
                "class", "trap", "pc", "proc", "detail", "results", "steps",
                "ticks", "restores", "injections_fired", "wire",
            }


def test_summary_counts_the_presets_swept():
    report = run_chaos(programs=("fib",), seeds=1, plans=("av_empty",), presets=("i2",))
    assert "1 cases x 1 impls" in report.summary()


def test_cli_net_chaos_runs_the_jit(tmp_path, engine_runs):
    """``--engine`` reaches the cluster's shards: compiled blocks run,
    and every outcome equals the interpreter's."""
    reports = {}
    for engine in ("interp", "jit"):
        path = tmp_path / f"{engine}.json"
        engine_runs.clear()
        assert main(["chaos", "--net", "--seeds", "1", "--engine", engine,
                     "--report", str(path)]) == 0
        reports[engine] = json.loads(path.read_text())
        assert bool(engine_runs) is (engine == "jit")
    assert reports["jit"] == reports["interp"]


def test_cli_refuses_jit_for_processes(capsys):
    assert main(["chaos", "--net", "--processes", "--engine", "jit"]) == 2
    assert "no engine slot" in capsys.readouterr().err


def test_cli_refuses_programs_for_net(capsys):
    assert main(["chaos", "--net", "--programs", "fib"]) == 2
    assert "mathlib" in capsys.readouterr().err


def _outcome(klass: OutcomeClass, **fields) -> Outcome:
    detail = "lost" if klass is OutcomeClass.TRAPPED else ""
    results = [] if klass is OutcomeClass.TRAPPED else list(MATHLIB.expect_results)
    return Outcome(klass, trap="lost_request" if detail else "", detail=detail,
                   results=results, **fields)


def test_net_presets_must_agree_on_the_outcome_class():
    outcomes = {
        "i1": _outcome(OutcomeClass.RECOVERED),
        "i2": _outcome(OutcomeClass.TRAPPED),
    }
    [failure] = NET.check(MATHLIB, outcomes, {})
    assert "outcome classes diverge" in failure
    assert PROCESS.check(MATHLIB, outcomes, {}) == []  # per-outcome only


def test_migrate_case_that_never_migrated_fails():
    moved = _outcome(OutcomeClass.RECOVERED, wire={"migrated": True})
    stayed = _outcome(OutcomeClass.RECOVERED, wire={"migrated": False})
    assert MIGRATE.check(MATHLIB, {"i2": moved}, {}) == []
    assert MIGRATE.check(MATHLIB, {"i2": stayed}, {}) == [
        "i2: the root never migrated"
    ]
