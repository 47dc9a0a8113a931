"""Ground-truth types, Tullock delegation, and the weighted-median rule.

:func:`wm_winner` is the weighted median of delegation weights up to
:data:`SCAN_MAX_FOLLOWERS` followers, and above it the proxy nearest the
median (Lemma 1); :func:`delegate` is the definition it is checked against.

A report space is the line or the integers (:class:`Space`); a scenario
file's grid step is a scale that :mod:`proxyline.scenario_io` owns. Proxy
ids are 0-based throughout the API; the CLI adds 1 when reporting. All
functions here are pure and deterministic: delegation ties go to the lower
proxy index and weighted-median ties to the smallest (position, index)
pair, never to randomness or history.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

from .errors import EmptyElectorateError, ScenarioValidationError
from .intervals import Interval

# Most followers whose winner ``wm_winner`` takes from delegation weights.
SCAN_MAX_FOLLOWERS = 32


@dataclass(frozen=True)
class Space:
    """The report space: the real line when ``step`` is None, else the
    integers (``step`` 1.0). A grid of another step is the integers scaled,
    and the scale is the file layer's (:mod:`proxyline.scenario_io`): every
    rule of the game is unchanged by scaling the line."""

    step: float | None = None

    def __post_init__(self):
        if self.step is not None and (self.step != 1.0 or not _finite_number(self.step)):
            why = f"step {self.step!r} is not 1: scale the grid to integers, as a file's step does"
            raise ScenarioValidationError("scenario.space.step", why)

    @staticmethod
    def continuous() -> "Space":
        return Space()

    @staticmethod
    def discrete(step: float = 1.0) -> "Space":
        return Space(step)

    @property
    def is_discrete(self) -> bool:
        return self.step is not None

    def on_grid(self, x: float) -> bool:
        return self.step is None or float(x).is_integer()  # NaN and ±inf are none

    def grid_point(self, iv: Interval, target: float) -> float | None:
        """The integer in ``iv`` nearest ``target``, or None: ``round(target)``
        clamped between the least and greatest integers in ``iv``. An infinite
        end bounds at the largest float; an open end that is an integer moves one
        integer inward, which past 2**53, where every float is one, is one float."""
        lo = float(math.ceil(max(iv.lo, -sys.float_info.max)))
        if lo == iv.lo and iv.lo_open:
            lo = lo + 1.0 if abs(lo) < 2.0**53 else math.nextafter(lo, math.inf)
        hi = float(math.floor(min(iv.hi, sys.float_info.max)))
        if hi == iv.hi and iv.hi_open:
            hi = hi - 1.0 if abs(hi) < 2.0**53 else math.nextafter(hi, -math.inf)
        if lo > hi:
            return None
        # min(hi, NaN) is hi; rounding is monotone, so the result stays in [lo, hi]
        return float(round(max(lo, min(hi, target))))


def _finite_number(x) -> bool:
    """The input rule for numbers: no bool; NaN, ±inf and ints past float range fail."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _floats(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats; the first value that is no real
    number (or overflows a float) is refused at ``scenario.<name>[i]``."""
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        # only a refused input pays for finding its offender
        for i, v in enumerate(values):
            try:
                float(v)
            except (TypeError, ValueError, OverflowError):
                raise ScenarioValidationError(
                    f"scenario.{name}[{i}]", f"{v!r} is not a real number"
                ) from exc
        raise


@dataclass(frozen=True)
class Scenario:
    """Immutable ground truth: peaks, follower positions, space."""

    proxy_peaks: tuple[float, ...]
    follower_positions: tuple[float, ...] = ()
    space: Space = field(default_factory=Space.continuous)

    def __post_init__(self):
        peaks = _floats("proxies", self.proxy_peaks)
        followers = _floats("followers", self.follower_positions)
        object.__setattr__(self, "proxy_peaks", peaks)
        object.__setattr__(self, "follower_positions", followers)
        if not peaks:
            raise ScenarioValidationError("scenario.proxies", "at least one proxy required")
        on_grid = math.isfinite if self.space.step is None else float.is_integer
        for name, values in (("proxies", peaks), ("followers", followers)):
            # one C-level pass per tuple; only a refused tuple is searched
            if not all(map(on_grid, values)):
                i, p = next((i, p) for i, p in enumerate(values) if not on_grid(p))
                why = "an integer" if math.isfinite(p) else "finite"
                raise ScenarioValidationError(f"scenario.{name}[{i}]", f"{p} is not {why}")

    @property
    def num_proxies(self) -> int:
        return len(self.proxy_peaks)

    @property
    def num_followers(self) -> int:
        return len(self.follower_positions)

    @cached_property
    def median_band(self) -> tuple[int, list[float]]:
        """(r, band): exactly ``sorted(follower_positions)[r : r + len(band)]``
        (the same float objects, equal positions in input order), built on
        first use.

        The band covers ranks k−m−1 to k+1, k = ⌊(n+m−1)/2⌋: every follower
        rank the median of a state (:func:`unweighted_median`) or one proxy's
        median window (:func:`proxyline.manipulation._median_window`) reads.
        Each level takes two pivots a ≤ b from a sorted strided sample of
        about N^(2/3) of its N followers that bracket those ranks (Floyd &
        Rivest 1975), and keeps every follower in [a, b], in input order;
        r counts the followers below. The next level samples what this one
        kept, while its stride is at least 11 (N ≥ 1 158) and each level
        brackets the ranks and shrinks the set. Each level keeps whole runs
        of equal positions, so the stable sort of the last one orders them
        as the full sort does. A level whose pivots miss the ranks stops
        there, and its whole set is sorted: the band is exact for any
        pivots, and the sample decides only the speed. Below about
        N = 1 000 a level's two comprehension passes cost more than the sort
        saves.
        """
        fs = self.follower_positions
        n, m = len(fs), len(self.proxy_peaks)
        k = (n + m - 1) // 2
        first, last = max(0, k - m - 1), min(n, k + 2)  # the band's ranks: [first, last)
        r, band = 0, fs
        while (stride := round(len(band) ** (1 / 3))) >= 11:
            sample = sorted(band[::stride])
            # sample j's rank is near j·stride, off by about sqrt(len)/2 sample
            # ranks (one sd): the pivots sit about four sd beyond the band's ranks
            gap = 2 * math.isqrt(len(sample)) + 1
            i, j = (first - r) // stride - gap, (last - r) // stride + gap
            a = sample[i] if i > 0 else -math.inf
            b = sample[j] if j < len(sample) else math.inf
            upper = [x for x in band if x >= a]
            below = r + len(band) - len(upper)
            kept = [x for x in upper if x <= b]
            if not (below <= first and last <= below + len(kept) and len(kept) < len(band)):
                break
            r, band = below, kept
        return r, sorted(band)

    @cached_property
    def _states(self) -> list[tuple[list[float], list]]:
        """The (snapshot, record) pairs :func:`_record` keeps, at most two,
        most recently used last."""
        return []

    def truthful_state(self) -> list[float]:
        return list(self.proxy_peaks)

    def all_positions(self) -> list[float]:
        return list(self.proxy_peaks) + list(self.follower_positions)

    def with_space(self, space: Space) -> "Scenario":
        return Scenario(self.proxy_peaks, self.follower_positions, space)

    def with_followers(self, followers: tuple[float, ...]) -> "Scenario":
        return Scenario(self.proxy_peaks, followers, self.space)


def nearer(x: float, a: float, b: float) -> bool:
    """True iff ``a`` is strictly nearer ``x`` than ``b``: |a − x| < |b − x|
    exactly, also where a distance rounds to a tie or overflows to inf.

    Rounding is monotone, so rounded distances that differ are in the exact
    order. When they are equal, |a − x| < |b − x| iff (a − b)(a + b − 2x) < 0,
    and the sign of a + b − 2x comes from its correctly rounded sum.
    """
    if a == b:
        return False
    da, db = abs(a - x), abs(b - x)
    if da != db:
        return da < db
    try:
        s = math.fsum((a, b, -x, -x))
    except OverflowError:  # an intermediate sum overflowed; the sign is exact in Fraction
        from fractions import Fraction  # imported here: rare, and slow to import

        s = Fraction(a) + Fraction(b) - 2 * Fraction(x)
    return s > 0 if a < b else s < 0


def reflect(c: float, p: float) -> float | None:
    """2c − p correctly rounded: the reflection of ``p`` across ``c``, or
    None when it lies beyond the largest float. The one owner of the
    breakpoints that are reflections."""
    try:
        r = math.fsum((c, c, -p))
    except OverflowError:  # an intermediate sum overflowed; the result may not
        r = math.inf
    if abs(r) < sys.float_info.max:
        return r
    from fractions import Fraction  # imported here: rare, and slow to import

    exact = 2 * Fraction(c) - Fraction(p)  # ±float max may be rounded from beyond
    return float(exact) if abs(exact) <= sys.float_info.max else None


def nearest(positions: list[float], x: float) -> int:
    """Index of the position nearest ``x``, exactly; ties go to the lower
    index.

    Rounded distances that differ are in the exact order (rounding is
    monotone), so :func:`nearer` decides only a rounded tie.
    """
    best, best_p = 0, positions[0]
    best_d = abs(best_p - x)
    for j in range(1, len(positions)):
        p = positions[j]
        d = abs(p - x)
        if d < best_d or d == best_d and nearer(x, p, best_p):
            best, best_p, best_d = j, p, d
    return best


def _check_state(scenario: Scenario, declared: list[float]) -> None:
    if len(declared) != len(scenario.proxy_peaks):
        raise ScenarioValidationError(
            "state", f"expected {scenario.num_proxies} declared positions, got {len(declared)}"
        )
    if not all(map(math.isfinite, declared)):
        j = next(j for j, p in enumerate(declared) if not math.isfinite(p))
        raise ScenarioValidationError(f"state[{j}]", f"{declared[j]} is not finite")


def _check_proxy(num_proxies: int, proxy_id: int, name: str) -> None:
    """Refuse a proxy id that is not an ``int`` in [0, num_proxies) at the
    argument ``name``, so that -1 never reads the last proxy, nor True the
    second."""
    if type(proxy_id) is not int or not 0 <= proxy_id < num_proxies:
        raise ScenarioValidationError(name, f"{proxy_id!r} is not a proxy id in [0, {num_proxies})")


def _check_finite(x: float, name: str) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")


def _record(scenario: Scenario, declared: list[float]) -> list:
    """The scenario's record of ``declared``, made (after checking the
    state) when it is not one of the last two states evaluated with more
    than :data:`SCAN_MAX_FOLLOWERS` followers. A record is ``[winner id,
    median's (index, value)]``, each None until first use.

    Two states are enough: a turn only evaluates the state being played and
    one proposal, and a passing round re-evaluates one unchanged state.
    ``declared`` (as a list) is compared by ``==`` with a copy of each
    recorded state, most recent first, so a caller that changes its list in
    place gets a fresh record, and 0.0 and -0.0, or 1 and 1.0, share one.
    That is exact: ``==``-equal positions are at equal distance from every
    follower and sort identically, so they give the same winner id and
    median index; the callers read the position back from ``declared``,
    which keeps its zero sign and type. A recorded state passed the check,
    and a NaN equals no float, so a state holding one always reaches it.
    """
    states = scenario._states
    if type(declared) is not list:
        declared = list(declared)
    if states and states[-1][0] == declared:
        return states[-1][1]
    if len(states) > 1 and states[0][0] == declared:
        states.reverse()
        return states[-1][1]
    _check_state(scenario, declared)
    record = [None, None]
    if len(states) > 1:
        del states[0]
    states.append((list(declared), record))
    return record


def delegate(scenario: Scenario, declared: list[float]) -> list[int]:
    """Followers per proxy under Tullock delegation: entry j counts the
    followers whose nearest declared position is proxy j's.

    Exact distance ties go to the lower proxy index. This is the
    definition, O(n·m); :func:`wm_winner` uses it only up to
    :data:`SCAN_MAX_FOLLOWERS` followers.
    """
    _check_state(scenario, declared)
    counts = [0] * len(declared)
    for fp in scenario.follower_positions:
        counts[nearest(declared, fp)] += 1
    return counts


def weighted_median(values: list[float], weights: list[float]) -> tuple[int, float]:
    """Weighted median element of ``values``.

    Returns the (index, value) of an element whose strictly-smaller
    complement weight and strictly-larger complement weight are each at
    most half the total. Among qualifying elements the smallest
    (value, index) pair wins. Raises ValueError for a value that is not
    finite, or a weight that is not finite and positive.
    """
    if not values:
        raise EmptyElectorateError("empty electorate")
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    total = sum(weights)
    # a NaN or infinite weight makes the sum NaN or infinite
    if not (min(weights) > 0 and total < math.inf):
        raise ValueError("weights must be positive and finite, with a finite sum")
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    # stable: equal values stay in index order, so this is (value, index)
    # order and the first qualifying run starts with the winning pair
    order = sorted(range(len(values)), key=values.__getitem__)
    below = 0.0  # weight of the elements sorted strictly before the run
    half = total / 2
    k = 0
    n = len(order)
    while k < n:
        i = order[k]
        v = values[i]
        w_run = weights[i]
        k += 1
        while k < n and values[order[k]] == v:
            w_run += weights[order[k]]
            k += 1
        above = total - below - w_run
        # each element of the run shares the same strict-complement sums,
        # except that equal-valued siblings never count as strictly smaller
        if below <= half and above <= half:
            return i, v
        below += w_run
    # unreachable: some element always qualifies
    raise EmptyElectorateError("no qualifying weighted-median element")


def unweighted_median(scenario: Scenario, declared: list[float]) -> float:
    """Median of the combined multiset (declared proxies + followers).

    Even-sized multisets resolve to the lower of the two middle elements
    (that is what the position-first tie rule yields with unit weights).
    Among equal values the first declared, else the first follower, is
    returned, which fixes the sign of a zero.

    The median has rank k = ⌊(n+m−1)/2⌋, so only the declared positions and
    the followers of ranks k−m to k can hold it, read from
    :attr:`Scenario.median_band`. The followers below that window count as
    one point at rank lo−1 weighted by their number, those above as one at
    rank hi: at most 2m+3 weighted items. With more than
    :data:`SCAN_MAX_FOLLOWERS` followers the median's (index, value) is
    kept in the scenario's record of the state, so a state met twice is
    ranked once.
    """
    record = None
    if len(scenario.follower_positions) > SCAN_MAX_FOLLOWERS:
        record = _record(scenario, declared)
        if record[1] is not None:
            i, value = record[1]
            return declared[i] if i < len(declared) else value
    else:
        _check_state(scenario, declared)
    r, band = scenario.median_band
    n, m = len(scenario.follower_positions), len(declared)
    k = (n + m - 1) // 2
    lo, hi = max(0, k - m), min(n, k + 1)
    values = list(declared)
    weights = [1.0] * m
    if lo:
        # the first of its run of equal values, the lowest follower index:
        # the band holds every follower equal to one it holds
        below = lo - 1 - r
        values.append(band[bisect_left(band, band[below], 0, below)])
        weights.append(float(lo))
    values += band[lo - r : hi - r]
    weights += [1.0] * (hi - lo)
    if hi < n:
        values.append(band[hi - r])
        weights.append(float(n - hi))
    found = weighted_median(values, weights)
    if record is not None:
        record[1] = found
    return found[1]


def delegation_weights(scenario: Scenario, declared: list[float]) -> list[float]:
    """w_j = (# followers delegating to j) + 1."""
    return [c + 1.0 for c in delegate(scenario, declared)]


def wm_winner(scenario: Scenario, declared: list[float]) -> tuple[int, float]:
    """Winner under the weighted-median rule: (proxy id, winning position).

    The state is checked before any other work. With more than
    :data:`SCAN_MAX_FOLLOWERS` followers the winner is the proxy nearest
    the median (Lemma 1), kept with the median in the scenario's record of
    the state, so each state is ranked once and never delegated."""
    if len(scenario.follower_positions) > SCAN_MAX_FOLLOWERS:
        record = _record(scenario, declared)
        if record[0] is None:
            record[0] = nearest_proxy_to_median(scenario, declared)
        i = record[0]
        return i, declared[i]
    return weighted_median(declared, delegation_weights(scenario, declared))


def nearest_proxy_to_median(scenario: Scenario, declared: list[float]) -> int:
    """Winner via the median-voter route: nearest proxy to the full median.

    Distance ties resolve like a delegation tie (lower proxy index): an
    argmin tie here is exactly the median voter's delegation tie, which is
    what makes this route the weighted-median winner of
    :func:`delegation_weights` (Lemma 1).
    """
    return nearest(declared, unweighted_median(scenario, declared))
