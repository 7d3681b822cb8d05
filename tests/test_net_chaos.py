"""Net chaos: transport faults must end in recovery or a clean trap."""

import json

import pytest

from repro.errors import NetError
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, Injection, at_step, on_event
from repro.net.chaos import (
    NET,
    NET_PLANS,
    make_net_plan,
    run_net_case,
)


def test_net_actions_validate_their_triggers():
    Injection(on_event("net.send", 3), "net_drop")  # fine
    with pytest.raises(ValueError, match="on_event trigger"):
        Injection(at_step(100), "net_drop")
    with pytest.raises(ValueError, match="unknown action"):
        Injection(on_event("net.send", 1), "net_teleport")


def test_machine_injector_never_arms_net_actions():
    """net_* faults belong to the transport; the per-machine injector
    must leave them alone even when the plan mixes both kinds."""
    plan = FaultPlan(
        name="mixed",
        seed=0,
        injections=(
            Injection(on_event("net.send", 1), "net_drop"),
            Injection(at_step(10), "trap", detail="frame_fault"),
        ),
    )
    injector = FaultInjector(plan)
    assert injector._armed == [False, True]


def test_plans_are_seeded_and_reproducible():
    for name in NET_PLANS:
        assert make_net_plan(name, 3) == make_net_plan(name, 3)
        assert make_net_plan(name, 3) != make_net_plan(name, 4)
    with pytest.raises(NetError, match="unknown net chaos plan"):
        make_net_plan("net_gremlins", 0)


def test_partition_case_recovers_with_reference_results():
    outcome = run_net_case("i2", make_net_plan("net_partition", 0))
    assert outcome.klass == "recovered"
    assert outcome.results == [119]
    assert outcome.injections_fired > 0


def test_blackhole_case_traps_cleanly_with_diagnostics():
    outcome = run_net_case("i2", make_net_plan("net_blackhole", 0))
    assert outcome.klass == "trapped"
    assert outcome.trap == "lost_request"
    assert "unanswered" in outcome.detail


def test_sweep_is_conformant_on_all_presets():
    report = NET.sweep(seeds=1)
    assert report.ok, report.summary()
    classes = {
        outcome.klass
        for case in report.cases
        for outcome in case.outcomes.values()
    }
    assert classes == {"recovered", "trapped"}  # both endings exercised
    # The report serializes for the CI artifact.
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["schema"] == "repro-net-chaos/1"
    assert doc["ok"] is True


def test_cli_chaos_net(tmp_path, capsys):
    from repro.cli import main

    report_file = tmp_path / "net.json"
    assert main(
        ["chaos", "--net", "--seeds", "1", "--plans", "net_partition",
         "--report", str(report_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "net chaos" in out
    assert "all implementations conformant" in out
    assert json.loads(report_file.read_text())["ok"] is True


def test_cli_chaos_net_rejects_unknown_plan(capsys):
    from repro.cli import main

    assert main(["chaos", "--net", "--plans", "net_gremlins"]) == 2
