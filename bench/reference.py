"""Reference kernel and host-speed sampler.

The benchmark runs on a shared host whose speed drifts by up to about 2x over
seconds to minutes, and process CPU time drifts with wall time, so neither
tells a slower program from a slower host. Every timed interval is
therefore also reported in *reference seconds*: its wall time scaled by
``NOMINAL_S / ref``, where ``ref`` is this module's kernel time measured by
a :class:`Sampler` thread around that interval, in the same process and on
the same CPU.

The kernel never calls the library. It mirrors the library's hot paths so
that a slower host slows both alike: a nearest-of-m scan over followers (as
in ``delegate``), a keyed sort of the pool and a scan over it (as in
``weighted_median``), and small frozen-dataclass construction (as in
``Scenario``), on followers scattered over a few MB of heap. Its inputs come
from a fixed seed and its work never changes; changing it, ``NOMINAL_S`` or
``PERIOD`` changes every reference-second figure.
"""

from __future__ import annotations

import bisect
import os
import random
import threading
import time
from dataclasses import dataclass

FOLLOWERS = 1500  # followers per kernel call
PROXIES = 5
OBJECTS = 300
STORE = 200_000  # followers the calls take their windows from, in turn
NOMINAL_S = 0.0019  # kernel CPU time in the sampler on the baseline host at full speed
PERIOD = 0.1  # seconds between two kernel calls of the sampler
WINDOW = 0.5  # an interval's samples: those within this many seconds of it


@dataclass(frozen=True)
class _Point:
    x: float
    w: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))


_rng = random.Random("bench/reference")
_PROXIES = [float(_rng.randint(-10_000, 10_000)) for _ in range(PROXIES)]
# Shuffled after the floats were made, so that a window of consecutive
# entries reads floats scattered over a few MB of heap, as the library's
# median sort over 100 000 followers does; a slower cache then slows both.
_STORE = [float(_rng.randint(-1_000_000, 1_000_000)) + 0.5 for _ in range(STORE)]
_rng.shuffle(_STORE)


def kernel(followers: list[float]) -> int:
    """The reference work on one window of the store."""
    nearest = []
    for fp in followers:
        best_j, best_d = 0, abs(_PROXIES[0] - fp)
        for j in range(1, len(_PROXIES)):
            d = abs(_PROXIES[j] - fp)
            if d < best_d:
                best_j, best_d = j, d
        nearest.append(best_j)
    pool = followers + _PROXIES
    order = sorted(range(len(pool)), key=lambda i: (pool[i], i))
    below = 0.0
    for i in order:
        if pool[i] > 0.0:
            break
        below += 1.0
    points = [_Point(x, 1.0) for x in followers[:OBJECTS]]
    return sum(nearest) + int(below) + len(points)


class Sampler:
    """Samples the host's speed while the main thread runs units.

    A daemon thread calls :func:`kernel` every ``PERIOD`` seconds, on the
    next ``FOLLOWERS`` entries of the store each time, and records
    (wall-clock start, thread CPU time of the call): about 1.9 ms on one
    Xeon vCPU beside a running unit. The thread shares the GIL with the
    main thread, so each call pauses the unit being timed for about one
    kernel time: about 2 % of it. The process is pinned to one CPU first,
    so the samples measure the core the units run on.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._next = 0  # start of the next call's window in the store
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="ref-sampler", daemon=True)

    def __enter__(self) -> "Sampler":
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._sample()  # warm-up
        self.starts.clear()
        self.costs.clear()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            self._sample()

    def _sample(self) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        kernel(_STORE[self._next:self._next + FOLLOWERS])
        self.costs.append(time.thread_time() - c0)
        self.starts.append(t0)
        self._next = (self._next + FOLLOWERS) % (STORE - FOLLOWERS)

    def ref(self, start: float, end: float) -> float:
        """Mean kernel CPU time over the samples taken within ``WINDOW``
        seconds of the interval [start, end] of ``time.perf_counter``;
        called after the sampler has stopped."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        window = self.costs[lo:hi]
        if not window:
            raise RuntimeError(f"no reference sample within {WINDOW} s of a timed interval")
        return sum(window) / len(window)
