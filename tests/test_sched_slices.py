"""Scheduler time slices run through the machine's one run loop.

Each slice is one call into ``Machine._execute`` — the JIT engine when
one is installed — so in-process serving executes compiled blocks, and
every meter must still match the interpreter's bit for bit.  The step
budgets keep their old meaning: ``Scheduler.run(max_steps=N)`` raises on
step N + 1, and ``config.step_limit`` (a cap on one ``run()`` call's
machine) never applies to scheduled processes.
"""

from __future__ import annotations

import pytest

from repro.errors import StepLimitExceeded
from repro.interp.processes import ProcessStatus, Scheduler
from repro.jit import install_jit
from repro.net.balance import Balancer
from repro.net.cluster import Cluster
from repro.net.serve import (
    SERVICE_SOURCES,
    Server,
    generate_skewed_workload,
    generate_workload,
)
from tests.conftest import build

SOURCES = [
    """
MODULE Main;
PROCEDURE leaf(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE worker(n): INT;
VAR i, acc: INT;
BEGIN
  i := 0;
  acc := 0;
  WHILE i < n DO
    acc := acc + leaf(i);
    i := i + 1;
  END;
  RETURN acc;
END;
PROCEDURE spin(limit): INT;
VAR i: INT;
BEGIN
  i := 0;
  WHILE i < limit DO
    i := i + 1;
  END;
  RETURN i;
END;
PROCEDURE main(): INT;
BEGIN
  RETURN 0;
END;
END.
"""
]


def shard_meters(cluster: Cluster) -> list:
    return [
        (shard.machine.steps, shard.machine.counter.snapshot())
        for shard in cluster.shards
    ]


def serve(engine: str, config: str, workload, **server_knobs):
    cluster = Cluster(
        list(SERVICE_SOURCES),
        shards=3,
        config=config,
        pins={"Main": 0, "Fib": 1},
        engine=engine,
    )
    report = Server(cluster, **server_knobs).serve(workload)
    assert report.lost == 0
    assert report.wrong == 0
    assert report.completed == len(workload)
    return report, cluster


@pytest.mark.parametrize("config", ("i2", "i4"))
def test_jit_serves_in_process_with_interpreter_meters(config, engine_runs):
    workload = generate_workload(3, 60)
    _, reference = serve("interp", config, workload)
    assert engine_runs == []
    _, cluster = serve("jit", config, workload)
    assert len(engine_runs) > 0
    assert shard_meters(cluster) == shard_meters(reference)


def test_jit_autoscale_pass_matches_the_interpreter(engine_runs):
    workload = generate_skewed_workload(3, 120)
    knobs = {
        "queue_capacity": 16,
        "batch_size": 8,
        "pump_ticks_per_round": 1,
    }
    runs = {}
    for engine in ("interp", "jit"):
        balancer = Balancer(high_water=4, low_water=2, patience=2, budget=2)
        report, cluster = serve(engine, "i2", workload, balancer=balancer, **knobs)
        runs[engine] = (report.migrations, shard_meters(cluster))
    assert len(engine_runs) > 0
    assert runs["jit"][0] > 0
    assert runs["jit"] == runs["interp"]


def scheduled_machine(engine: str, **config):
    machine = build(SOURCES, preset="i2", **config)
    if engine == "jit":
        install_jit(machine)
    return machine


@pytest.mark.parametrize("engine", ("interp", "jit"))
def test_step_limit_does_not_cap_scheduled_processes(engine):
    machine = scheduled_machine(engine, step_limit=1_000)
    scheduler = Scheduler(machine, quantum=7)
    processes = [scheduler.spawn("Main", "worker", n) for n in (40, 50, 60)]
    processes.append(scheduler.spawn("Main", "spin", 400))
    scheduler.run()
    assert [p.results for p in processes] == [[820], [1275], [1830], [400]]
    assert [p.steps for p in processes] == [931, 1161, 1391, 3609]
    assert machine.steps == 7092


@pytest.mark.parametrize("engine", ("interp", "jit"))
@pytest.mark.parametrize("quantum", (0, 7))
def test_scheduler_budget_raises_on_the_step_after_it(engine, quantum):
    machine = scheduled_machine(engine)
    scheduler = Scheduler(machine, quantum=quantum)
    worker = scheduler.spawn("Main", "worker", 5)
    spinner = scheduler.spawn("Main", "spin", 300)
    with pytest.raises(StepLimitExceeded) as excinfo:
        scheduler.run(max_steps=500)
    assert excinfo.value.limit == 500
    assert machine.steps == 501
    assert (worker.steps, spinner.steps) == (126, 375)
    assert worker.status is ProcessStatus.DONE
    assert worker.results == [15]
    assert spinner.status is ProcessStatus.RUNNING
