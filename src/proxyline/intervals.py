"""Intervals on the real line with explicit open/closed bounds.

Better-response sets and median intervals need exact boundary semantics:
whether an endpoint is attainable is decided by tie-breaking, not by
tolerance, so bounds carry explicit flags instead of epsilons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A nonempty interval. Infinite endpoints are always open."""

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        if math.isinf(self.lo) and not self.lo_open:
            object.__setattr__(self, "lo_open", True)
        if math.isinf(self.hi) and not self.hi_open:
            object.__setattr__(self, "hi_open", True)
        if not self.is_valid():
            raise ValueError(f"empty or inverted interval: {self}")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x, False, False)

    @staticmethod
    def open(lo: float, hi: float) -> "Interval":
        return Interval(lo, hi, True, True)

    def is_valid(self) -> bool:
        if self.lo < self.hi:
            return True
        return self.lo == self.hi and not self.lo_open and not self.hi_open

    def contains(self, x: float) -> bool:
        if not self.lo <= x <= self.hi:  # NaN is in no interval
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection, or None when it holds no float (an open interval
        between two adjacent floats holds none)."""
        if self.lo > other.lo or (self.lo == other.lo and self.lo_open):
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = other.lo, other.lo_open
        if self.hi < other.hi or (self.hi == other.hi and self.hi_open):
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = other.hi, other.hi_open
        if lo > hi:
            return None
        if lo == hi and (lo_open or hi_open):
            return None
        if lo_open and hi_open and math.nextafter(lo, INF) == hi:
            return None
        return Interval(lo, hi, lo_open, hi_open)

    def __neg__(self) -> "Interval":
        """The mirror image through 0; float negation is exact."""
        return Interval(-self.hi, -self.lo, self.hi_open, self.lo_open)

    def __str__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo}, {self.hi}{rb}"

