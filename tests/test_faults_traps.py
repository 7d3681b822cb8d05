"""Graceful degradation: promotion, trap surfacing, and quarantine.

The audit behind these tests: resource exhaustion anywhere inside the
interpreter must surface as a *modelled* trap — a
:class:`~repro.errors.TrapError` carrying exact (kind, pc, proc)
diagnostics — never as a host ``KeyError``/``IndexError``; and one
trap-storming process must not wedge the scheduler for the others.
"""

from __future__ import annotations

import pytest

from repro.alloc.avheap import PROMOTION_LIMIT, AVHeap
from repro.alloc.sizing import geometric_ladder
from repro.errors import HeapExhausted, TrapError
from repro.interp.processes import ProcessStatus, Scheduler
from repro.interp.traps import TrapKind
from repro.machine.memory import Memory
from tests.conftest import build

# -- AVHeap promotion (section 5.3's software allocator, bounded retry) ------


def make_heap(arena_words=64):
    memory = Memory(1 << 16)
    ladder = geometric_ladder()
    return AVHeap(memory, ladder, 16, 64, arena_words), memory


def exhaust_arena(heap):
    """Burn the remaining arena so _replenish must fail from now on."""
    heap._bump = heap.arena_limit


def test_promotion_grants_a_nearby_larger_class():
    heap, memory = make_heap()
    big = heap.allocate(3)  # puts a class-3 frame into circulation
    heap.free(big)
    exhaust_arena(heap)
    memory.poke(heap.av_base + 1, 0)  # class 1's list is empty too

    pointer = heap.allocate(1)  # wants class 1, must take the class-3 frame
    assert pointer == big
    assert heap.stats.promotions == 1
    # The block keeps its larger fsi header, so free() stays consistent.
    assert memory.peek(pointer - 1) == 3
    heap.free(pointer)
    assert memory.peek(heap.av_base + 3) == pointer  # back on class 3's list


def test_promotion_is_bounded():
    """A free frame more than PROMOTION_LIMIT classes above the request
    must not be granted: that much internal fragmentation is worse than
    a clean resource trap."""
    heap, memory = make_heap(arena_words=256)
    far = heap.allocate(0 + PROMOTION_LIMIT + 1)
    heap.free(far)
    exhaust_arena(heap)
    for fsi in range(PROMOTION_LIMIT + 1):
        memory.poke(heap.av_base + fsi, 0)

    with pytest.raises(HeapExhausted):
        heap.allocate(0)
    assert heap.stats.promotions == 0


def test_promotion_emits_trace_event():
    heap, memory = make_heap()

    class Sink:
        def __init__(self):
            self.events = []

        def emit(self, kind, name="", **data):
            self.events.append((kind, data))

    big = heap.allocate(2)
    heap.free(big)
    exhaust_arena(heap)
    memory.poke(heap.av_base, 0)
    heap.tracer = Sink()
    heap.allocate(0)
    promotes = [d for k, d in heap.tracer.events if k == "alloc.promote"]
    assert promotes == [{"requested_fsi": 0, "granted_fsi": 2, "pointer": big}]


def test_normal_path_never_promotes():
    """Promotion only triggers after the software allocator itself fails;
    the fast path and the ordinary replenishment trap are untouched —
    which is what keeps normal-run meters identical to the seed."""
    heap, _ = make_heap(arena_words=2048)
    pointers = [heap.allocate(1) for _ in range(20)]
    for pointer in pointers:
        heap.free(pointer)
    assert heap.stats.promotions == 0


# -- trap surfacing: modelled traps, never host exceptions -------------------


RUNAWAY = [
    """
MODULE Main;
PROCEDURE forever(n): INT;
BEGIN
  RETURN forever(n + 1);
END;
PROCEDURE main(): INT;
BEGIN
  RETURN forever(0);
END;
END.
"""
]


@pytest.mark.parametrize("preset", ["i1", "i2", "i4"])
def test_resource_exhaustion_pins_kind_pc_and_proc(preset):
    """Negative test per the audit: arena exhaustion inside run() must
    surface RESOURCE_EXHAUSTED with the faulting pc and procedure —
    from every allocator (first-fit on I1, AV heap on I2, deferred
    allocation on I4)."""
    machine = build(RUNAWAY, preset=preset)
    machine.start()
    with pytest.raises(TrapError) as excinfo:
        machine.run()
    fault = excinfo.value
    assert fault.trap == "resource_exhausted"
    assert fault.pc == machine.pc >= 0
    assert fault.proc in ("Main.forever", "Main.main")
    assert fault.detail  # the exhaustion message rides along


def test_wild_dispose_is_a_storage_fault_not_a_host_error():
    """DISPOSE of a pointer that was never allocated is caught by the
    host-side liveness map (a dict lookup) — the audit point is that it
    surfaces as a modelled storage fault, not a KeyError."""
    source = [
        """
MODULE Main;
PROCEDURE main(): INT;
VAR p: INT;
BEGIN
  p := 4;
  DISPOSE p;
  RETURN 0;
END;
END.
"""
    ]
    machine = build(source, preset="i2")
    machine.start()
    with pytest.raises(TrapError) as excinfo:
        machine.run()
    assert excinfo.value.trap == "storage_fault"
    assert excinfo.value.proc == "Main.main"
    assert excinfo.value.pc >= 0


def test_trap_error_message_carries_diagnostics():
    machine = build(RUNAWAY, preset="i2")
    machine.start()
    with pytest.raises(TrapError) as excinfo:
        machine.run()
    text = str(excinfo.value)
    assert "resource_exhausted" in text
    assert "Main." in text


# -- scheduler quarantine ----------------------------------------------------


MIXED = [
    """
MODULE Main;
PROCEDURE crash(): INT;
VAR a: INT;
BEGIN
  a := 1;
  RETURN a DIV (a - 1);
END;
PROCEDURE worker(base, count): INT;
VAR i: INT;
BEGIN
  i := 0;
  WHILE i < count DO
    OUTPUT base + i;
    i := i + 1;
    YIELD;
  END;
  RETURN base;
END;
PROCEDURE storm(limit): INT;
VAR i, a: INT;
BEGIN
  i := 0;
  WHILE i < limit DO
    a := 1;
    a := a DIV (a - 1);
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


def test_faulting_process_is_quarantined_not_fatal():
    """One process dies on an unhandled trap; the scheduler quarantines
    it with full diagnostics and the healthy process finishes."""
    machine = build(MIXED, preset="i4")
    scheduler = Scheduler(machine)
    bad = scheduler.spawn("Main", "crash")
    good = scheduler.spawn("Main", "worker", 10, 3)
    scheduler.run()
    assert bad.status is ProcessStatus.FAULTED
    assert bad.fault["trap"] == "divide_by_zero"
    assert bad.fault["pc"] >= 0
    assert bad.fault["proc"] == "Main.crash"
    assert good.status is ProcessStatus.DONE
    assert good.results == [10]
    assert machine.output == [10, 11, 12]
    assert scheduler.stats.quarantines == 1


def test_trap_storm_hits_the_quota():
    """A process that traps over and over — each one *recovered* by a
    handler, so it never dies outright — still gets quarantined once it
    exceeds the per-slice trap quota, and the other process runs on."""
    machine = build(MIXED, preset="i2")
    machine.trap_handlers[TrapKind.DIVIDE_BY_ZERO] = lambda m, kind, detail: None
    scheduler = Scheduler(machine, quantum=200, trap_quota=5)
    stormer = scheduler.spawn("Main", "storm", 50)
    good = scheduler.spawn("Main", "worker", 7, 2)
    scheduler.run()
    assert stormer.status is ProcessStatus.FAULTED
    assert stormer.fault["trap"] == "trap_storm"
    assert stormer.traps > 5
    assert good.status is ProcessStatus.DONE
    assert good.results == [7]
    assert scheduler.stats.quarantines == 1


@pytest.mark.parametrize("engine", ("interp", "jit"))
@pytest.mark.parametrize("quantum", (0, 200))
def test_trap_storm_quota_is_exact(quantum, engine):
    """The quota ends the slice on the very step of the sixth trap, even
    with quantum 0, where the slice has no natural end; on either
    engine the stormer's steps, traps and fault pc are the same."""
    machine = build(MIXED, preset="i2")
    if engine == "jit":
        from repro.jit import install_jit

        install_jit(machine)
    machine.trap_handlers[TrapKind.DIVIDE_BY_ZERO] = lambda m, kind, detail: None
    scheduler = Scheduler(machine, quantum=quantum, trap_quota=5)
    stormer = scheduler.spawn("Main", "storm", 50)
    good = scheduler.spawn("Main", "worker", 7, 2)
    scheduler.run()
    assert stormer.status is ProcessStatus.FAULTED
    assert stormer.fault["trap"] == "trap_storm"
    assert stormer.fault["detail"] == "6 traps in one slice (quota 5)"
    assert (stormer.steps, stormer.traps, stormer.fault["pc"]) == (99, 6, 56)
    assert good.results == [7]
    assert machine.steps == 137


def test_quarantine_emits_sched_fault_event():
    from repro.obs import TraceRecorder

    machine = build(MIXED, preset="i3")
    recorder = TraceRecorder()
    machine.attach_tracer(recorder)
    scheduler = Scheduler(machine)
    scheduler.spawn("Main", "crash")
    scheduler.run()
    faults = [e for e in recorder.events if e.kind == "sched.fault"]
    assert len(faults) == 1
    assert faults[0].data["trap"] == "divide_by_zero"


def test_machine_stays_usable_after_quarantine():
    """Quarantine must leave no residue: the same machine can run a new
    process to completion afterwards."""
    machine = build(MIXED, preset="i4")
    scheduler = Scheduler(machine)
    scheduler.spawn("Main", "crash")
    scheduler.run()
    scheduler2 = Scheduler(machine)
    fresh = scheduler2.spawn("Main", "worker", 3, 2)
    scheduler2.run()
    assert fresh.status is ProcessStatus.DONE
    assert fresh.results == [3]
