"""Brute-force verifiers: every analytic claim gets an exhaustive twin.

The deviation search deliberately avoids the geometric shortcuts in
:mod:`proxyline.manipulation`; it re-derives each outcome from the whole
changed state with :func:`proxyline.model.wm_winner`.
:func:`oracle_best_deviation` returns the best of the reports it is given;
on :func:`deviation_reports` its yes/no answer is exact, and its
improvement is a lower bound on the supremum when the improving reports
form an open set. :func:`oracle_dominating_check` and
:func:`oracle_max_regret` cannot enumerate the hidden followers, so both
loop over the median windows they can make (Lemma 1, :func:`_windows`).
"""

from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations

from .errors import InconsistentObservationError
from .model import Scenario, _check_finite, _check_proxy, nearer, nearest, reflect, wm_winner
from .partial_info import BeliefState, ObservedState


@dataclass(frozen=True)
class GridSpec:
    """The points ``lower + k·step`` from ``lower`` to ``upper``."""

    lower: float
    upper: float
    step: float

    def __iter__(self):
        count = round((self.upper - self.lower) / self.step) + 1
        return (self.lower + k * self.step for k in range(count))


def deviation_reports(scenario: Scenario, declared: list[float], proxy_id: int) -> list[float]:
    """Finite reports that reach every outcome proxy ``proxy_id`` can get.

    The breakpoints are the other declared positions and, for each follower
    f, its reflections 2f − L and 2f − R across the nearest other positions
    L ≤ f ≤ R (:func:`~proxyline.model.reflect`, correctly rounded, so no
    float lies between a breakpoint and the exact value). Between
    consecutive breakpoints every follower's delegation and the report's
    rank among the others are fixed, so the winner is too, and the outcome
    is constant or equals the report. The reports are the breakpoints plus
    one per gap between them that holds a float: the gap's float nearest
    the peak, which is the peak itself or the float next to the gap's edge.
    """
    peak = scenario.proxy_peaks[proxy_id]
    others = sorted({p for k, p in enumerate(declared) if k != proxy_id})
    breaks = set(others)
    for f in scenario.follower_positions:
        i, k = bisect_right(others, f), bisect_left(others, f)
        breaks.update(reflect(f, p) for p in others[i - 1 : i] + others[k : k + 1])
    breaks.discard(None)
    cuts = sorted(breaks)
    reports = list(cuts)
    for a, b in zip([-math.inf] + cuts, cuts + [math.inf]):
        first, last = math.nextafter(a, math.inf), math.nextafter(b, -math.inf)
        if first <= last:
            reports.append(min(max(peak, first), last))
    return sorted(reports)


def oracle_best_deviation(
    scenario: Scenario, declared: list[float], proxy_id: int, reports: Iterable[float]
) -> tuple[float, float] | None:
    """Exhaustive scan for the best single-proxy deviation among ``reports``
    (any iterable of finite positions, a :class:`GridSpec` included).

    Returns (position, improvement) for the report whose outcome is nearest
    the proxy's peak, the first such in ``reports``, or None when no report
    strictly improves on the status quo. On :func:`deviation_reports` the
    None-or-not answer is exact; the improvement is the best among the
    reports, a lower bound on the supremum when the improving set is open.
    """
    peak = scenario.proxy_peaks[proxy_id]
    _, current = wm_winner(scenario, declared)
    best: tuple[float, float] | None = None  # (report, its outcome)
    trial = list(declared)
    for x in reports:
        trial[proxy_id] = x
        _, outcome = wm_winner(scenario, trial)
        if nearer(peak, outcome, current if best is None else best[1]):
            best = (x, outcome)
    if best is None:
        return None
    return best[0], _gain(peak, current, best[1])


def _gain(peak: float, current: float, outcome: float) -> float:
    """|current − peak| − |outcome − peak| for an ``outcome`` nearer the
    peak: in floats where both distances are finite, else rounded from the
    exact value (inf beyond the float range), so never NaN."""
    gain = abs(current - peak) - abs(outcome - peak)
    if math.isfinite(gain):
        return gain
    from fractions import Fraction  # imported here: rare, and slow to import

    p = Fraction(peak)
    exact = abs(Fraction(current) - p) - abs(Fraction(outcome) - p)
    return float(exact) if exact <= sys.float_info.max else math.inf


class DominatingVerdict(enum.Enum):
    DOMINATING = "dominating"
    NOT_WEAKLY_BETTER = "not_weakly_better"
    NEVER_STRICTLY_BETTER = "never_strictly_better"


@dataclass(frozen=True)
class DominatingCheck:
    verdict: DominatingVerdict
    counterexample: tuple[float, ...] | None = None


def _windows(observed: ObservedState, proxy_id: int, extra: list[float]) -> Iterator[tuple]:
    """Yield each median window (lo, hi, p) that hidden followers can make
    and that gives the poll, p of the others (the declared positions but
    proxy ``proxy_id``'s) at or below lo and q above. By Lemma 1 the median
    is clamp(report, lo, hi), lo ≤ hi being the ranks k−1 and k of the
    others and the followers; ``(lo,)*(q+1) + (hi,)*(p+1)`` makes any
    window with no other strictly inside. Its verdicts change only at the
    declared positions, the ``extra`` points and their midpoints: each of
    those, its float neighbours (a rounded midpoint hides no piece) and a
    finite point past each end, as lo and as hi, cover every window.
    """
    declared, own = observed.declared, observed.declared[proxy_id]
    others = sorted(declared[:proxy_id] + declared[proxy_id + 1 :])
    cuts = {*declared, *extra}
    cuts.update(a / 2 + b / 2 for a, b in combinations(list(cuts), 2))
    span = max(cuts) - min(cuts) or 1.0
    points = {min(cuts) - span, max(cuts) + span}  # dropped below if they overflow
    points.update(cuts, (math.nextafter(c, d) for c in cuts for d in (-math.inf, math.inf)))
    points = sorted(p for p in points if math.isfinite(p))
    for i, lo in enumerate(points):
        p = bisect_right(others, lo)  # others at or below lo
        cap = others[p] if p < len(others) else math.inf  # hi may reach the next other
        for hi in points[i:]:
            if hi > cap:
                break
            if nearest(declared, min(max(own, lo), hi)) == observed.winner_id:
                yield lo, hi, p


def _deviate(observed: ObservedState, proxy_id: int, candidate: float) -> list[float]:
    """The declared positions with proxy ``proxy_id`` reporting ``candidate``."""
    _check_proxy(len(observed.declared), proxy_id, "proxy_id")
    _check_finite(candidate, "candidate")
    return [*observed.declared[:proxy_id], candidate, *observed.declared[proxy_id + 1 :]]


def oracle_dominating_check(
    observed: ObservedState, proxy_id: int, candidate: float, peak: float
) -> DominatingCheck:
    """Whether ``candidate`` dominates for proxy ``proxy_id`` with peak
    ``peak`` (Conitzer, Walsh and Xia, AAAI 2011): never worse than the
    polled outcome in any median window that gives the poll
    (:func:`_windows`), so under any follower profile of any size, and
    strictly better in one. A harming window's followers are the
    NOT_WEAKLY_BETTER counterexample; no window raises
    :class:`InconsistentObservationError`.
    """
    deviated = _deviate(observed, proxy_id, candidate)
    _check_finite(peak, "peak")
    before = observed.winner_position
    consistent = strictly_better = False
    for lo, hi, p in _windows(observed, proxy_id, [candidate]):
        consistent = True
        after = deviated[nearest(deviated, min(max(candidate, lo), hi))]
        if nearer(peak, before, after):
            followers = (lo,) * (len(deviated) - p) + (hi,) * (p + 1)
            return DominatingCheck(DominatingVerdict.NOT_WEAKLY_BETTER, followers)
        strictly_better = strictly_better or nearer(peak, after, before)
    if not consistent:
        raise InconsistentObservationError(f"no median window gives the poll {observed}")
    if strictly_better:
        return DominatingCheck(DominatingVerdict.DOMINATING)
    return DominatingCheck(DominatingVerdict.NEVER_STRICTLY_BETTER)


def oracle_max_regret(belief: BeliefState, proxy_id: int, candidate: float, peak: float) -> float:
    """Maximal ex-post regret of ``candidate`` for proxy ``proxy_id`` with
    peak ``peak`` (Savage, JASA 1951): the sup, over the median windows
    that give the poll (:func:`_windows`) with the median in the belief's
    interval, of the candidate's distance from the peak minus the least
    distance any report reaches there. This is the simulator's game, whose
    belief update follows a report across the median: report y gets the
    declared position nearest clamp(y, lo, hi), so the outcomes reached
    fill [a, b] up to its ends, a the other proxy nearest lo if at or below
    lo, else its reflection across lo, and b likewise at hi. No window
    raises :class:`InconsistentObservationError`."""
    deviated = _deviate(belief.observed, proxy_id, candidate)
    _check_finite(peak, "peak")
    rest = deviated[:proxy_id] + deviated[proxy_id + 1 :]
    own, iv = belief.observed.declared[proxy_id], belief.interval
    extra = [candidate, peak] + [x for x in (iv.lo, iv.hi) if math.isfinite(x)]
    regrets = []
    for lo, hi, _ in _windows(belief.observed, proxy_id, extra):
        if not iv.contains(min(max(own, lo), hi)):
            continue
        after = deviated[nearest(deviated, min(max(candidate, lo), hi))]
        best = peak  # the reached point nearest the peak; alone, every report wins
        if rest:
            o_lo, o_hi = rest[nearest(rest, lo)], rest[nearest(rest, hi)]
            a = o_lo if o_lo <= lo else reflect(lo, o_lo)  # None: past the float range
            b = o_hi if o_hi >= hi else reflect(hi, o_hi)
            best = min(max(best, -math.inf if a is None else a), math.inf if b is None else b)
        regrets.append(_gain(peak, after, best))
    if not regrets:
        raise InconsistentObservationError(f"no median window gives the belief {belief}")
    return max(regrets)
