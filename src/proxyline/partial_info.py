"""Partial information: winner-only polls, median intervals, regret play.

Only the declared positions and the winner's identity are public: the
number of followers and their positions are hidden, and followers may sit
anywhere on the line. The median interval holds every median of the
current state consistent with the polls so far, following the median as
reports move across it; dominating sets and the minimax-regret rule are
computed from that interval alone, never from hidden follower positions.

Each bound of a poll's interval is the correctly rounded midpoint toward
a declared neighbour, and it belongs to the interval iff the announced
winner wins there (:func:`~proxyline.model.nearest`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InconsistentObservationError
from .intervals import INF, Interval
from .model import Scenario, _check_finite, _check_proxy, nearer, nearest, reflect, wm_winner


@dataclass(frozen=True)
class ObservedState:
    """Everything the winner-only poll reveals: (declared vector, winner)."""

    declared: tuple[float, ...]
    winner_id: int

    @property
    def winner_position(self) -> float:
        return self.declared[self.winner_id]


@dataclass(frozen=True)
class BeliefState:
    observed: ObservedState
    interval: Interval

    @property
    def winner_position(self) -> float:
        return self.observed.winner_position


def observe(scenario: Scenario, declared: list[float]) -> ObservedState:
    """The winner-only poll: declared positions plus the winner's identity."""
    winner_id, _ = wm_winner(scenario, declared)
    return ObservedState(tuple(declared), winner_id)


def _neighbors(observed: ObservedState) -> tuple[float | None, float | None]:
    """The nearest declared positions below and above the winner's."""
    w = observed.winner_position
    below = above = None
    for p in observed.declared:
        if p < w:
            if below is None or p > below:
                below = p
        elif p > w and (above is None or p < above):
            above = p
    return below, above


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2 correctly rounded. A finite sum is rounded once and
    halved exactly, or, when the half is subnormal, is exact and halved
    with one rounding; past float max the two halves are exact."""
    s = a + b
    return s / 2 if math.isfinite(s) else a / 2 + b / 2


def _midpoint_interval(observed: ObservedState) -> Interval:
    """Medians under which the announced winner really wins.

    Bounds sit at the correctly rounded midpoints toward the nearest
    declared neighbours; a bound is closed iff the announced winner wins
    there, which decides a rounded midpoint and an exact-distance tie
    alike.
    """
    w, declared, wid = observed.winner_position, observed.declared, observed.winner_id
    left, right = _neighbors(observed)
    lo = -INF if left is None else _midpoint(left, w)
    hi = INF if right is None else _midpoint(w, right)
    lo_open = left is None or nearest(declared, lo) != wid
    hi_open = right is None or nearest(declared, hi) != wid
    return Interval(lo, hi, lo_open, hi_open)


def init_belief(observed: ObservedState) -> BeliefState:
    return BeliefState(observed, _midpoint_interval(observed))


def update_median_interval(belief: BeliefState, observed_after: ObservedState) -> Interval:
    """The median interval after one observed move: the belief's interval,
    followed to the new state, intersected with the medians under which
    the announced winner really wins (by Lemma 1 each poll's midpoint
    interval holds its state's median; no rule reads the mover's intent).

    A report moving from a to b takes a median in the segment from a
    (closed) to b (open) toward b, at most to b, and leaves any other
    median put. So the interval first grows to hold b (closed) whenever it
    meets that segment, b on an open bound included. Changed reports are
    followed in index order; the new state's median does not depend on it.
    """
    interval = belief.interval
    for a, b in zip(belief.observed.declared, observed_after.declared):
        if a == b:
            continue
        # it meets the segment iff it holds a or its bound on a's side is in it
        if interval.contains(a) or (a <= interval.lo < b if a < b else b < interval.hi <= a):
            lo, lo_open = (b, False) if b <= interval.lo else (interval.lo, interval.lo_open)
            hi, hi_open = (b, False) if b >= interval.hi else (interval.hi, interval.hi_open)
            interval = Interval(lo, hi, lo_open, hi_open)
    fresh = _midpoint_interval(observed_after)
    new = interval.intersect(fresh)
    if new is None:
        raise InconsistentObservationError(f"median interval became empty: {interval} ∩ {fresh}")
    return new


def update_belief(belief: BeliefState, observed_after: ObservedState) -> BeliefState:
    return BeliefState(observed_after, update_median_interval(belief, observed_after))


def _mirror(belief: BeliefState) -> BeliefState:
    """The belief's mirror image through 0. Float negation is exact and
    keeps every proxy id, so each distance and each lower-index tie
    carries over bit for bit: a rule written for a peak at or left of the
    winner serves a right peak as ``-rule(_mirror(belief), ..., -peak)``."""
    observed = ObservedState(tuple(-p for p in belief.observed.declared), belief.observed.winner_id)
    return BeliefState(observed, -belief.interval)


def dominating_set_nonwinner(belief: BeliefState, proxy_id: int, peak: float) -> Interval | None:
    """Strong-monotone dominating reports for a proxy that is not winning.

    For a peak at or left of the winner w, the open interval
    (max(2·peak − w, 2·least − w), w), where ``least`` is the least float
    the median interval holds and each reflection is correctly rounded
    (:func:`~proxyline.model.reflect`; one past the float range gives no
    bound). Left of 2·least − w a report never beats w at any consistent
    median, and left of 2·peak − w its win lands farther from the peak
    than w. None when that interval, or the median interval, holds no
    float. A right peak is the mirror image (:func:`_mirror`).
    """
    _check_proxy(len(belief.observed.declared), proxy_id, "proxy_id")
    _check_finite(peak, "peak")
    if proxy_id == belief.observed.winner_id:
        raise ValueError("proxy is the current winner; use dominating_set_winner")
    w, iv = belief.winner_position, belief.interval
    if peak > w:
        dom = dominating_set_nonwinner(_mirror(belief), proxy_id, -peak)
        return -dom if dom else None
    least = iv.lo if not iv.lo_open else math.nextafter(iv.lo, INF)
    # no median left of w: no report left of it wins (and reflect(least, w)
    # may pass float max, which would read as no bound)
    if least >= w or not iv.contains(least):
        return None
    bounds = [r for r in (reflect(peak, w), reflect(least, w)) if r is not None]
    return Interval.open(max(bounds, default=-INF), INF).intersect(Interval.open(-INF, w))


def dominating_set_winner(belief: BeliefState, peak: float) -> Interval | None:
    """Dominating meta-moves for the reigning winner.

    For a peak left of the winner: nonempty only when the winner sits
    strictly between its peak and the median interval and the right
    neighbor is farther from the interval's right bound than the winner
    is (:func:`~proxyline.model.nearer`); the safe stretch is bounded by
    the correctly rounded reflections (:func:`~proxyline.model.reflect`)
    of that neighbor across the bound and of the winner across the peak.
    A right peak is the mirror image (:func:`_mirror`). None when the
    stretch holds no float.
    """
    _check_finite(peak, "peak")
    w = belief.winner_position
    iv = belief.interval
    if peak > w:
        dom = dominating_set_winner(_mirror(belief), -peak)
        return -dom if dom else None
    if not peak < w < iv.lo:
        return None
    right = _neighbors(belief.observed)[1]
    if right is None or not math.isfinite(iv.hi) or not nearer(iv.hi, w, right):
        return None
    bounds = [r for r in (reflect(iv.hi, right), reflect(peak, w)) if r is not None]
    return Interval.open(max(bounds, default=-INF), INF).intersect(Interval.open(-INF, w))


def minimax_regret_strategy(belief: BeliefState, proxy_id: int, peak: float) -> float:
    """Report minimizing worst-case regret over the median interval.

    The reigning winner stays put (at its peak this is optimal outright;
    off-peak any move risks handing the win to a worse position). A
    non-winner moves to the relevant interval bound, or keeps its report
    when the bound is the winner itself and the report already lies
    strictly beyond it, where the whole far half-line is regret-free.
    """
    _check_proxy(len(belief.observed.declared), proxy_id, "proxy_id")
    _check_finite(peak, "peak")
    declared = belief.observed.declared[proxy_id]
    w = belief.winner_position
    if proxy_id == belief.observed.winner_id or peak == w:
        return declared
    bound = belief.interval.lo if peak < w else belief.interval.hi
    if not math.isfinite(bound):
        return declared
    if bound == w and (declared < bound if peak < w else declared > bound):
        return declared
    return bound
