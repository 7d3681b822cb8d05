"""Spans, call counts and captured inputs, recorded from outside ``src/``.

The traced run wraps public functions of the repro modules (class
attributes and module functions) in place and undoes every wrap on
:meth:`Tracer.restore`.  Two kinds of wrap:

* :meth:`Tracer.span` — a timed span per call, with its parent (the
  span open when it began) and the request id the harness set with
  :meth:`Tracer.request`.  Used on functions entered a
  few times per request (link, ``Machine.run``, ``Cluster.pump_tick``).
* :meth:`Tracer.count` — a call counter that also keeps the first
  ``CAPTURE`` calls' arguments.  Used on functions entered once per
  modelled instruction (the meter, region attribution, decode, the AV
  heap, the bank file), where a timer around every call would cost more
  than the call.  :func:`time_per_op` then times the same function on
  its own over the captured inputs.

Spans stay in memory and are written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

#: Calls whose arguments are kept per counted function, for the replay.
CAPTURE = 20_000


class Tracer:
    """Patches public functions and records what the patched calls did."""

    def __init__(self) -> None:
        #: Closed spans: [name, start, end, parent index or -1, request id].
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        #: Per counted name: the first calls' (args, kwargs).
        self.captured: dict[str, list[tuple[tuple, dict]]] = {}
        self._stack: list[int] = []  # indices of the open spans
        self._patches: list[tuple[object, str, object]] = []
        self._request: object = None

    # -- patching ---------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        # ``vars`` keeps a class's own entry (None when inherited, so the
        # restore deletes the shadowing wrapper instead of copying it).
        original = vars(owner).get(attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def span(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called *name*."""
        function = getattr(owner, attr)
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.open(name):
                return function(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count every call of ``owner.attr``; keep the first argument tuples."""
        function = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)
        kept = self.captured.setdefault(name, [])

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if len(kept) < CAPTURE:
                kept.append((args, kwargs))
            return function(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    # -- spans ------------------------------------------------------------

    def request(self, request_id: object) -> None:
        """Tag the spans opened from now on with *request_id*."""
        self._request = request_id

    def open(self, name: str) -> _Span:
        return _Span(self, name)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent, _req) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def span_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for span in self.spans:
            totals[span[0]] = totals.get(span[0], 0) + 1
        return totals

    def total_seconds(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _p, _r in self.spans if span_name == name)

    def dump(self, path: Path, provenance: dict) -> None:
        """Write the spans (name, start, end, parent, request) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "provenance": provenance,
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": self.spans,
            "counts": self.counts,
        }
        path.write_text(json.dumps(doc, default=str) + "\n")


class _Span:
    """An open span; closing it appends the record to the tracer."""

    __slots__ = ("tracer", "name", "index", "start", "parent")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> _Span:
        stack = self.tracer._stack
        spans = self.tracer.spans
        # Reserve the slot now so children can name their parent index.
        self.index = len(spans)
        self.parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans[self.index] = [
            self.name, self.start, end, self.parent, self.tracer._request
        ]


def time_per_op(function, inputs: list[tuple[tuple, dict]], repeats: int = 3) -> float:
    """Best-of-*repeats* ns per call of *function* over captured (args, kwargs)."""
    if not inputs:
        return 0.0
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        for args, kwargs in inputs:
            function(*args, **kwargs)
        best = min(best, time.perf_counter() - begin)
    return best * 1e9 / len(inputs)
