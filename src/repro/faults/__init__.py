"""Deterministic fault injection, snapshot/restore, and chaos testing.

The paper's ladder of implementations (I1-I4) is only trustworthy if
every rung degrades *identically* under resource exhaustion: an empty AV
free list, a full frame arena, a bank-file overflow storm, a trap inside
a trap.  This package makes those situations reproducible on demand and
checks that the implementations never diverge:

* :mod:`repro.faults.plan` — a seeded, declarative **FaultPlan** DSL:
  inject at step N, at cycle N, or on the k-th occurrence of any traced
  event (``alloc.frame``, ``bank.spill``, ``ifu.flush``, ``xfer.trap``,
  ...).
* :mod:`repro.faults.inject` — the **FaultInjector**, a
  :class:`~repro.obs.tracer.Tracer` that watches the machine's own event
  stream and applies the plan.  Injection rides the existing
  observability hooks, so the interpreter needs no new branches and the
  modelled meters are untouched until a fault actually fires.
* :mod:`repro.faults.snapshot` — versioned serialization of the complete
  machine state vector (frames, heaps and AV free lists, bank file, IFU
  return stack, process table, counters, pending traps).  ``capture``
  then ``restore`` onto a freshly linked image resumes a run that is
  bit-identical to an uninterrupted one on all modelled meters.
* :mod:`repro.faults.chaos` — the one chaos engine: replay seeded
  fault plans across I1-I4 and assert every run **recovers**, **traps**
  cleanly with exact diagnostics, or **resumes** from its last
  snapshot — and that the implementations never disagree on the
  outcome class.  A :class:`~repro.faults.chaos.Family` supplies the
  plans, the case runner, the report schema and the contract:
  ``MACHINE`` here (corpus programs on one machine), and the ``NET``,
  ``MIGRATE`` and ``PROCESS`` transport-fault families in
  :mod:`repro.net.chaos`.

See ``docs/faults.md`` for the fault taxonomy and the snapshot schema
versioning policy.
"""

from repro.faults.chaos import (
    CANNED_PLANS,
    MACHINE,
    ChaosReport,
    Family,
    Outcome,
    OutcomeClass,
    run_case,
    run_chaos,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import (
    CONTROL_ACTIONS,
    STATE_ACTIONS,
    FaultPlan,
    Injection,
    Trigger,
    at_cycle,
    at_step,
    on_event,
)
from repro.faults.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotError,
    capture,
    restore,
)

__all__ = [
    "CANNED_PLANS",
    "CONTROL_ACTIONS",
    "ChaosReport",
    "Family",
    "FaultInjector",
    "FaultPlan",
    "Injection",
    "MACHINE",
    "Outcome",
    "OutcomeClass",
    "SNAPSHOT_SCHEMA",
    "STATE_ACTIONS",
    "SnapshotError",
    "Trigger",
    "at_cycle",
    "at_step",
    "capture",
    "on_event",
    "restore",
    "run_case",
    "run_chaos",
]
