"""Host speed probe.

On a shared host the same Python work runs up to a third slower for seconds
or minutes at a time, as other tenants load the machine. The probe measures
that while the workload runs: a timer signal interrupts the main thread every
INTERVAL_S and times a fixed chunk of work of the kinds the program does
(row reduction modulo a prime, bitmask elimination, small record allocation;
written here, independent of codedpir). Time spent in the probe is excluded
by `clock`.

`scale(start, end)` is NOMINAL_S over the median time of the chunks run from
WINDOW_S before `start` to WINDOW_S after `end` (times by `clock`): a timing
multiplied by it reads as on a host where the chunk takes NOMINAL_S. Program
changes move the workload's timings but not the chunk's.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

INTERVAL_S = 0.025
NOMINAL_S = 0.8e-3    # about the chunk's time on a quiet 2-core x86 test host
WINDOW_S = 0.1        # samples this close to an interval also measure it

_P = 257
_rng = random.Random(1)
_MATRIX = [[_rng.randrange(_P) for _ in range(12)] for _ in range(8)]
_VECTORS = [_rng.getrandbits(24) for _ in range(48)]


@dataclass(frozen=True)
class _Record:
    n: int
    support: tuple


def _rank(rows: list[list[int]]) -> int:
    """Row reduction modulo a prime: list rows, modular arithmetic."""
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0])):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], _P - 2, _P)
        prow = a[rank] = [x * inv % _P for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % _P for x, y in zip(a[i], prow)]
        rank += 1
    return rank


def _xor_basis(vectors: list[int]) -> int:
    """Binary independence test on bitmasks: integer ops and sorting."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def _records(count: int) -> int:
    """Small frozen records keyed by sorted tuples: allocation and hashing."""
    found: dict[tuple, _Record] = {}
    for i in range(count):
        key = tuple(sorted(((i * 7) % 13, (i * 5) % 11, i % 17)))
        if key not in found:
            found[key] = _Record(13, key)
    return len(found)


def chunk() -> None:
    """The fixed work one probe sample times; three kinds of code the program
    spends its time in, because a busy host slows them by different amounts."""
    _rank(_MATRIX)
    _xor_basis(_VECTORS)
    _records(150)


class Probe:
    def __init__(self):
        self.times: list[float] = []     # clock() when each chunk ran
        self.samples: list[float] = []   # its duration
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        dt = time.perf_counter() - t0
        self.times.append(t0 - self.spent)
        self.samples.append(dt)
        self.spent += dt

    def clock(self) -> float:
        """perf_counter minus the time spent probing."""
        return time.perf_counter() - self.spent

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median chunk time around [start, end] (1.0 if none)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            return 1.0
        return NOMINAL_S / statistics.median(self.samples[lo:hi])

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
