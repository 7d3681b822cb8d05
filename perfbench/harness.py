"""Shared pieces of the benchmark: the failure ledger, passes, the
host-speed canary, percentiles, peak memory and provenance."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: ``setup_s`` is the median of at least this many set-ups per run ...
SETUP_REPEATS = 3
#: ... repeated until they have taken this long (cheap set-ups get more
#: samples), up to ``SETUP_MAX_REPEATS``.
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
#: A part of the work is scaled by the fastest canary run within this
#: many runs of the one that follows it (see :class:`HostSpeed`).
SCALE_WINDOW = 2

#: The canary's fastest time on the reference host (2-vCPU x86_64 VM,
#: CPython 3.11; 1.07 ms was the fastest of 12,879 runs over 17
#: minutes).  Host times are reported in that host's seconds: see
#: :class:`HostSpeed`.
CANARY_REFERENCE_S = 1.1e-3


@dataclass
class Outcome:
    """Attempted and failed operations, with a name for every failure.

    A wrong answer, a lost request, an unexpected trap or a meter that
    differs from its reference is recorded here and the run goes on.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, what: str) -> None:
        self.failures.append(what)


def canary() -> float:
    """Seconds of a fixed piece of Python work that uses no repro code.

    Scattered reads and writes over a 64K-word list, dict traffic,
    object allocation and ``compile()``: the kinds of work the
    interpreter, the JIT and the serving layer do.  The cyclic garbage
    collector is off while it runs, so that the canary is never charged
    for collecting the garbage of the work measured before it.
    """
    gc.disable()
    try:
        begin = time.perf_counter()
        words = [0] * 65536
        table: dict[int, int] = {}
        acc = 0
        for i in range(3000):
            address = (i * 40503) & 0xFFFF
            words[address] = (words[address] + i) & 0xFFFF
            acc = (acc + words[(address * 7) & 0xFFFF]) & 0xFFFF
            table[i & 511] = table.get(i & 511, 0) + 1
        rows = [{"a": i, "b": [i, i + 1], "c": str(i)} for i in range(1500)]
        source = "def f(x):\n" + "".join(f"    x = x + {k}\n" for k in range(30)) + "    return x\n"
        exec(compile(source, "<canary>", "exec"), {})
        del words, table, rows
        return time.perf_counter() - begin
    finally:
        gc.enable()


class HostSpeed:
    """The host's speed for Python work, from canary runs between parts
    of the measured work.

    On the reference host (a 2-vCPU VM) other work on the machine slows
    this process by up to 2.5x, in spells from under a second to
    minutes, which no repetition inside a 20-second run averages out.
    The canary slows by about the same factor, so each part of the work is followed by one canary run,
    and a part that took ``t`` seconds while the fastest canary run near
    it (within ``SCALE_WINDOW`` runs) took ``c`` seconds is reported as
    ``t * CANARY_REFERENCE_S / c``: seconds on the uncontended reference
    host.  Pairing each part with the canary runs next to it, not with
    the fastest run of a whole pass, keeps a pass that was slow for most
    of its length from being scaled by one fast moment.  The raw figures
    are printed beside the scaled ones.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Run the canary once, after a part of the work."""
        self.samples.append(canary())

    def scales(self) -> list[float]:
        """Per canary run: the factor from the seconds of the part before
        it to reference-host seconds."""
        runs = self.samples
        return [
            CANARY_REFERENCE_S / min(runs[max(0, k - SCALE_WINDOW) : k + SCALE_WINDOW + 1])
            for k in range(len(runs))
        ]


@dataclass
class Pass:
    """One pass over a workload's fixed unit of work."""

    #: name -> (operations, seconds, modelled steps) of each part of the
    #: pass: one program run (run-*) or one round of the ``serve()``
    #: call (serve-inproc).  Every pass has the same parts.
    parts: dict[str, tuple[int, float, int]] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)
    #: name -> the part's factor to reference-host seconds (:class:`HostSpeed`).
    scales: dict[str, float] = field(default_factory=dict)

    @property
    def scaled_seconds(self) -> float:
        return sum(seconds * self.scales[name] for name, (_ops, seconds, _steps) in self.parts.items())


@dataclass
class Phase:
    """The passes of one measured stretch; each repeats the same work."""

    runs: list[Pass] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.runs)

    def best(self, scaled: bool = True) -> tuple[int, float, int]:
        """(operations, seconds, steps) of a pass made of each part's fastest run.

        The fastest of several runs of identical work is the steadiest
        estimate of its cost; *scaled* reports it in reference-host
        seconds (see :class:`HostSpeed`).
        """
        fastest: dict[str, tuple[int, float, int]] = {}
        for run in self.runs:
            for name, (ops, seconds, steps) in run.parts.items():
                if scaled:
                    seconds *= run.scales[name]
                if name not in fastest or seconds < fastest[name][1]:
                    fastest[name] = (ops, seconds, steps)
        return (
            sum(part[0] for part in fastest.values()),
            sum(part[1] for part in fastest.values()),
            sum(part[2] for part in fastest.values()),
        )

    def fastest(self) -> Pass:
        return min(self.runs, key=lambda run: run.scaled_seconds)


def repeat_setup(setup_once) -> tuple[list[float], list[float]]:
    """Raw and reference-host seconds of repeated set-ups.

    ``setup_once(speed)`` sets up once, calls ``speed.sample()`` after
    each of its parts, and returns the parts' seconds.  What a set-up
    built is collected before the next one, so that dead set-ups do not
    pile up and raise the peak resident set.
    """
    speed = HostSpeed()
    setups: list[list[float]] = []
    while len(setups) < SETUP_REPEATS or (
        sum(map(sum, setups)) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        setups.append(setup_once(speed))
        gc.collect()
    scales = iter(speed.scales())
    scaled = [sum(part * next(scales) for part in parts) for parts in setups]
    return list(map(sum, setups)), scaled


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the convention the serve reports use)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[rank]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def provenance(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Commit, interpreter, core count and run parameters of a result."""
    commit = "unknown (not a git checkout)"
    # Only the checkout's own repository: git would otherwise search the
    # directories above it and could name an unrelated commit.
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
