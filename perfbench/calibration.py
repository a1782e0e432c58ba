"""A fixed reference kernel that tracks the host's speed.

The benchmark runs on shared hosts whose speed swings, for seconds to
minutes at a time, as other tenants contend for the cores, the caches and
memory: the same placement job takes up to twice as long in a slow phase
as in a quiet one.  Such phases outlast a run, so repetition inside a run
does not average them away.  A job's wall time divided by the time of a
fixed kernel run next to it barely moves, however, because both slow down
together.

The kernel has two parts, timed separately: random reads from a table of
floats far larger than a core's share of the cache (pointer chasing, as
the placer's graph and dictionary walks do) and an integer loop that
stays in registers and the first-level cache.  Placement jobs mix both
kinds of work, and a slow phase slows the two by different amounts, so
the kernel's time is the geometric mean of the two parts.  The kernel does
not touch the program under test: a change to the program moves a
calibrated time as it moves the wall time, while the host's speed is
divided out.

A *calibrated* time is ``wall × NOMINAL_S ÷ kernel time``: the wall time
the same work takes in a phase where one kernel run takes ``NOMINAL_S``,
about a quiet phase's kernel time on the 2-core x86-64 container the
benchmark was tuned on.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time
from typing import List, Optional, Tuple

#: Calibrated seconds that one kernel run counts as.
NOMINAL_S = 0.006
#: Floats in the table the kernel reads from (about 16 MB resident).
VALUES = 500_000
#: Random table reads, and integer loop iterations, per kernel run.
READS = 60_000
LOOPS = 60_000
#: Least timed wall between two kernel runs.
INTERVAL_S = 0.25


def _resident_bytes() -> int:
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0


class Calibrator:
    """Runs the reference kernel.

    The table is built once.  Tuples of floats and ints hold nothing the
    cyclic garbage collector has to follow, so the table does not slow the
    program's own collections.  ``resident_bytes`` is the memory the table
    added to the process, for taking out of its peak RSS.
    """

    def __init__(self) -> None:
        before = _resident_bytes()
        rng = random.Random("perfbench-calibration")
        self._values = tuple(rng.random() for _ in range(VALUES))
        self._reads = tuple(rng.randrange(VALUES) for _ in range(READS))
        self.resident_bytes = max(_resident_bytes() - before, 0)
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the kernel once; returns its time in seconds."""
        values = self._values
        start = time.perf_counter()
        total = 0.0
        for index in self._reads:
            total += values[index]
        middle = time.perf_counter()
        count = 0
        for step in range(LOOPS):
            count += step * step % 7
        end = time.perf_counter()
        elapsed = math.sqrt((middle - start) * (end - middle))
        self.samples.append(elapsed)
        return elapsed

    def measure(self, runs: int = 1) -> float:
        """The median time of ``runs`` kernel runs in a row."""
        return statistics.median(self.sample() for _ in range(runs))


def scale(before: float, after: float) -> float:
    """Calibrated seconds per wall second between two kernel runs."""
    return NOMINAL_S / ((before + after) / 2.0)


class Segments:
    """Calibrates a stream of timed work by kernel runs between its pieces.

    Call :meth:`start` before the work begins.  After each piece of work
    (a job, or a parallel pass), outside the timed region, call
    :meth:`mark` with the latencies of the jobs it ran, then :meth:`resume`
    once the bookkeeping is done.  A kernel run is taken at a mark once at
    least :data:`INTERVAL_S` of work has passed since the last one, and
    the pieces in between are scaled by the mean of the kernel runs on
    either side of them.  :meth:`finish` scales the pieces still waiting.
    A piece's wall runs from the previous ``resume``, so loading its
    inputs counts with it.  Each kernel measurement is the median of
    ``runs`` kernel runs; more than one steadies the scale where few
    pieces share a measurement.
    """

    def __init__(self, calibrator: Calibrator, runs: int = 1) -> None:
        self.calibrator = calibrator
        self.runs = runs
        self.latencies: List[float] = []  # calibrated, seconds
        self.wall = 0.0  # calibrated, seconds
        self._pending: List[Tuple[List[float], float]] = []
        self._pending_wall = 0.0
        self._last: Optional[float] = None
        self._resumed = 0.0

    def start(self) -> None:
        self._last = self.calibrator.measure(self.runs)
        self._resumed = time.perf_counter()

    def mark(self, latencies: List[float]) -> None:
        piece = time.perf_counter() - self._resumed
        self._pending.append((latencies, piece))
        self._pending_wall += piece
        if self._pending_wall >= INTERVAL_S:
            self._flush()

    def resume(self) -> None:
        self._resumed = time.perf_counter()

    def finish(self) -> None:
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        current = self.calibrator.measure(self.runs)
        factor = scale(self._last, current)
        for latencies, piece in self._pending:
            self.latencies.extend(latency * factor for latency in latencies)
            self.wall += piece * factor
        self._pending = []
        self._pending_wall = 0.0
        self._last = current
