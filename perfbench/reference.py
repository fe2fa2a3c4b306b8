"""The reference work that puts timings on a steady scale.

The benchmark runs on small shared machines, where the host's speed drifts
by a third or more within a minute: a fixed pure-Python loop, or one
replay of a fixed schedule whose work counts repeat exactly, can take
1.5x as long in one minute as in the next.  Wall-clock latencies of two
runs of the same code therefore differ by more than any useful bound.

So the timed run measures the host's speed beside every op.  After each
op the client runs one fixed chunk of reference work (:func:`chunk`: some
pure-Python dict, string and sort work, and a small in-memory SQLite scan,
the two kinds of work the serving stack does) and times it.  An op's
latency is reported at the reference speed: its measured latency times
``NOMINAL_S / r``, where ``r`` is the median time of the reference chunks
run beside it (:data:`WINDOW` ops either side) and :data:`NOMINAL_S` is
the chunk's time on a quiet host.  A program change that makes an op
slower makes it slower at every speed of the host, so it shows in full; a
slow spell of the host slows the chunk too and cancels out.  The chunk runs
between ops, outside every op's timing.
"""

from __future__ import annotations

import signal
import sqlite3
import statistics
import time
from typing import Any, List, Sequence

#: The reference chunk's time on a quiet host: the 2-vCPU Xeon KVM guest
#: the baseline was taken on, at its fastest.  Any constant would do; this
#: one keeps the reported figures close to wall-clock times on that host.
NOMINAL_S = 0.40e-3

#: The host speed for an op is the median over the reference chunks of
#: this many ops either side of it.
WINDOW = 10

_ROWS = 6000
_DB = sqlite3.connect(":memory:", check_same_thread=False)
_DB.execute("CREATE TABLE reference (id INTEGER PRIMARY KEY, name TEXT, "
            "bucket INTEGER)")
_DB.executemany("INSERT INTO reference VALUES (?, ?, ?)",
                [(row, str(row), row % 97) for row in range(_ROWS)])


def chunk() -> float:
    """Run the reference work once; returns its wall time in seconds."""
    start = time.perf_counter()
    counts: dict = {}
    digits = 0
    for value in range(600):
        key = (value * 7919) % 257
        counts[key] = counts.get(key, 0) + value
        digits += len(str(value))
    ranked = sorted(counts.items(), key=lambda item: -item[1])
    _DB.execute("SELECT count(*) FROM reference WHERE bucket = 5 "
                "AND name LIKE '1%'").fetchone()
    elapsed = time.perf_counter() - start
    assert digits and ranked
    return elapsed


def at_reference_speed(latencies: Sequence[float],
                       chunks: Sequence[float]) -> List[float]:
    """Scale each latency by the reference chunks timed around it.

    ``chunks[i]`` is the chunk run right after op ``i``.
    """
    scaled = []
    for index, latency in enumerate(latencies):
        near = chunks[max(0, index - WINDOW):index + WINDOW + 1]
        scaled.append(latency * NOMINAL_S / statistics.median(near))
    return scaled


class SetupClock:
    """Times a long single step (a world's set-up) at the reference speed.

    A set-up is one call that runs for up to several seconds, so no chunk
    can run between its ops.  Instead an interval timer interrupts it every
    :data:`SETUP_TICK_S` and the signal handler runs one chunk, so the
    chunks sample the host's speed all through the step.  Their own time is
    taken out of the step's.  ``with SetupClock() as clock: ...`` leaves
    the scaled time in ``clock.seconds`` and the host's slowdown over the
    step in ``clock.slowdown``.  Main thread only.
    """

    #: Chunks run just before and after the step, so that a step shorter
    #: than one tick is still scaled by the speed around it.
    EDGE_CHUNKS = 25
    SETUP_TICK_S = 0.05

    def __init__(self) -> None:
        self.chunks: List[float] = []
        self.seconds = 0.0
        self.slowdown = 1.0
        self._start = 0.0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        self.chunks.append(chunk())

    def __enter__(self) -> "SetupClock":
        self.chunks += [chunk() for _ in range(self.EDGE_CHUNKS)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.SETUP_TICK_S,
                         self.SETUP_TICK_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        elapsed -= sum(self.chunks[self.EDGE_CHUNKS:])
        self.chunks += [chunk() for _ in range(self.EDGE_CHUNKS)]
        self.slowdown = slowdown(self.chunks)
        self.seconds = elapsed / self.slowdown


def slowdown(chunks: Sequence[float]) -> float:
    """How much slower than nominal the host ran over ``chunks``."""
    return statistics.median(chunks) / NOMINAL_S
