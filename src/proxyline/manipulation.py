"""Better-response sets, manipulability characterization, and PNE tests.

The analytic route here works from the median-voter geometry: moving one
proxy while the rest stay put clamps the combined median into a fixed
window, so the outcome as a function of the deviation has at most five
pieces (two constant tails, one stretch where the report itself wins, and
a boundary report at each lower-index tie win). :func:`outcome_pieces` is
the one owner of that geometry and :func:`improving_pieces` of which
pieces beat the current outcome; the better-response set here and the
policies in :mod:`proxyline.dynamics` read them. The winner rule
:func:`proxyline.model.wm_winner`, evaluated on the whole changed state,
stays independent of that geometry and cross-checks every claim.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .intervals import INF, Interval
from .metrics import true_median
from .model import (
    Scenario, _check_finite, _check_proxy, _check_state, nearer, nearest, reflect, wm_winner,
)


class ManipulationVerdict(NamedTuple):
    manipulable: bool
    witness_proxy: int | None = None
    witness_position: float | None = None


class Piece(NamedTuple):
    """Reports on which one proxy's deviation gets one outcome: a fixed
    position, or None where the outcome is the report itself. ``tie_win``
    marks a boundary report that gets itself only because the deviator
    wins an exact-distance tie by its lower index."""

    reports: Interval
    outcome: float | None
    tie_win: bool = False


def _median_window(scenario: Scenario, declared: list[float], proxy_id: int):
    """Bounds the combined median can take as ``proxy_id`` moves.

    Returns (lo, hi, others) where others is [(position, id), ...] and the
    median of the full state equals clamp(x, lo, hi) when the proxy
    declares x.
    """
    _check_state(scenario, declared)  # the band holds the ranks of m proxies only
    others = [(p, k) for k, p in enumerate(declared) if k != proxy_id]
    r, band = scenario.median_band
    k = (len(declared) + scenario.num_followers - 1) // 2  # 0-based rank of ``hi`` in the pool
    # with m-1 others, only the followers of ranks k-m to k can sit at rank
    # k-1 or k; the stable sort keeps the objects (and zero signs) a
    # whole-pool sort picks
    start = max(0, k - len(declared))
    pool = sorted([p for p, _ in others] + band[start - r : k + 1 - r])
    lo = pool[k - 1 - start] if k >= 1 else -INF
    hi = pool[k - start] if k - start < len(pool) else INF
    return lo, hi, others


def outcome_pieces(scenario: Scenario, declared: list[float], proxy_id: int) -> list[Piece]:
    """The outcome of ``proxy_id``'s report while the others stay put, as at
    most five pieces in ascending order of report: a constant tail, a
    boundary report, the stretch where the report wins, a boundary report,
    a constant tail.

    Beyond each bound of the median window the report wins up to an edge:
    the nearest fixed proxy's position when that lies beyond the bound,
    else its reflection across the bound (:func:`~proxyline.model.reflect`,
    correctly rounded). The stretch holds the edge iff the report wins
    strictly there and the tail iff the fixed proxy's position is the
    outcome there; a boundary report remains only where the report wins an
    exact-distance tie by its lower index."""
    lo, hi, others = _median_window(scenario, declared, proxy_id)
    # ``others`` ascends by id, so a nearest tie keeps the lower one
    positions = [p for p, _ in others]

    def side(bound: float, sign: float) -> tuple[float, bool, Piece | None, Piece | None]:
        """The edge beyond ``bound``, whether the stretch holds it, its tail
        and its boundary report."""
        if not others or math.isinf(bound):  # a lone proxy, or no bound: the report wins
            return sign * INF, False, None, None
        pos, k = others[nearest(positions, bound)]
        edge = pos if sign * (pos - bound) >= 0 else reflect(bound, pos)
        if edge is None:  # past float max: every finite report beyond the bound wins
            return sign * INF, False, None, None
        wins = nearer(bound, edge, pos)
        tie_win = edge != pos and not wins and not nearer(bound, pos, edge) and proxy_id < k
        tail_open = wins or tie_win
        tail = Interval(edge, INF, tail_open) if sign > 0 else Interval(-INF, edge, True, tail_open)
        point = Piece(Interval.point(edge), edge, True) if tie_win else None
        return edge, wins, Piece(tail, pos), point

    left_edge, left_in, left_tail, left_point = side(lo, -1.0)
    right_edge, right_in, right_tail, right_point = side(hi, 1.0)
    reports = Interval(left_edge, INF, not left_in).intersect(
        Interval(-INF, right_edge, True, not right_in)
    )
    stretch = Piece(reports, None) if reports is not None else None
    return [p for p in (left_tail, left_point, stretch, right_point, right_tail) if p is not None]


def improving_pieces(
    scenario: Scenario, declared: list[float], proxy_id: int, current: float
) -> list[Piece]:
    """The pieces of :func:`outcome_pieces` whose outcome is strictly nearer
    the proxy's peak than ``current``, with the stretch cut to the ball of
    such reports. The ball's near end is ``current`` itself, open; its far
    end is the reflection of ``current`` across the peak, correctly
    rounded, and closed iff it is strictly nearer the peak."""
    peak = scenario.proxy_peaks[proxy_id]
    if current == peak:
        return []
    far = reflect(peak, current)
    far_open = far is None or not nearer(peak, far, current)
    if far is None:  # past float max: the ball holds every finite report beyond the peak
        far = math.copysign(INF, peak - current)
    ball = (
        Interval(current, far, True, far_open) if current < far else Interval(far, current, far_open)
    )
    out = []
    for piece in outcome_pieces(scenario, declared, proxy_id):
        if piece.outcome is None:
            reports = piece.reports.intersect(ball)
            if reports is not None:
                out.append(Piece(reports, None))
        elif nearer(peak, piece.outcome, current):
            out.append(piece)
    return out


def is_better_response(
    scenario: Scenario, declared: list[float], proxy_id: int, candidate: float
) -> bool:
    """True iff reporting ``candidate`` strictly improves the proxy's outcome.

    Computed with :func:`~proxyline.model.wm_winner` on both states,
    independently of the geometric machinery above.
    """
    _check_proxy(len(scenario.proxy_peaks), proxy_id, "proxy_id")
    _check_finite(candidate, "candidate")
    peak = scenario.proxy_peaks[proxy_id]
    _, current = wm_winner(scenario, declared)
    trial = list(declared)
    trial[proxy_id] = candidate
    _, moved = wm_winner(scenario, trial)
    return nearer(peak, moved, current)


def better_response_set(
    scenario: Scenario,
    declared: list[float],
    proxy_id: int,
    include_tie_wins: bool = True,
) -> list[Interval]:
    """Exact set of strictly improving reports for one proxy, as intervals
    in ascending order, no two touching. The improving pieces ascend and
    are disjoint, so a piece joins the one before it only where it starts
    at that one's end and at most one of the two ends there is open.

    ``include_tie_wins=False`` drops the boundary reports that only help
    because the mover wins an exact-distance tie by its lower index; the
    distance-contraction laws of monotone play hold for all remaining
    moves, so the built-in policies restrict themselves to that subset.
    """
    _check_proxy(len(scenario.proxy_peaks), proxy_id, "proxy_id")
    _, current = wm_winner(scenario, declared)
    out: list[Interval] = []
    for piece in improving_pieces(scenario, declared, proxy_id, current):
        if piece.tie_win and not include_tie_wins:
            continue
        iv = piece.reports
        if out and out[-1].hi == iv.lo and not (out[-1].hi_open and iv.lo_open):
            last = out.pop()
            iv = Interval(last.lo, iv.hi, last.lo_open, iv.hi_open)
        out.append(iv)
    return out


def is_pne(scenario: Scenario, declared: list[float], include_tie_wins: bool = True) -> bool:
    """True iff no proxy has any better response.

    In discrete space only grid reports count; in continuous space the
    analytic set must be empty. With ``include_tie_wins=False`` the check
    ignores deviations that improve only by winning an index tie (the
    equilibrium notion the monotone convergence law is stated for).
    """
    for j in range(scenario.num_proxies):
        brs = better_response_set(scenario, declared, j, include_tie_wins=include_tie_wins)
        if scenario.space.is_discrete:  # any target finds a grid point where there is one
            if any(scenario.space.grid_point(iv, 0.0) is not None for iv in brs):
                return False
        elif brs:
            return False
    return True


def characterize_truthful_manipulability(scenario: Scenario) -> ManipulationVerdict:
    """Complete characterization of truthful-state manipulability.

    Manipulable iff no peak sits exactly at the population median and
    peaks exist strictly on both sides of it. The witness is the
    constructive move: a cross-median losing proxy relocating to the
    median.
    """
    med = true_median(scenario)
    peaks = scenario.proxy_peaks
    if any(p == med for p in peaks):
        return ManipulationVerdict(False)
    has_left = any(p < med for p in peaks)
    has_right = any(p > med for p in peaks)
    if not (has_left and has_right):
        return ManipulationVerdict(False)

    declared = scenario.truthful_state()
    winner_id, wm = wm_winner(scenario, declared)
    # witness: nearest-to-median proxy on the far side of the winner
    side = 1.0 if peaks[winner_id] < med else -1.0
    far = [j for j, p in enumerate(peaks) if (p - med) * side > 0]
    witness = far[nearest([peaks[j] for j in far], med)]
    return ManipulationVerdict(True, witness_proxy=witness, witness_position=med)


def follower_manipulation_scan(scenario: Scenario) -> tuple[int, float] | None:
    """Exhaustive search for an improving follower misreport (Theorem 1).

    A report changes the outcome only through the proxy that gets the
    follower's weight. A report at a declared position p goes to the first
    proxy at p, at distance 0, and every report goes to some proxy that is
    first at its position; so one report at each distinct declared
    position reaches every outcome any report can, and the search is
    complete and exact. The expected return is always None; a found
    witness is (follower index, misreport).
    """
    declared = scenario.truthful_state()
    _, truthful_outcome = wm_winner(scenario, declared)
    for i, peak in enumerate(scenario.follower_positions):
        for x in dict.fromkeys(declared):
            followers = list(scenario.follower_positions)
            followers[i] = x
            trial = scenario.with_followers(tuple(followers))
            _, outcome = wm_winner(trial, declared)
            if nearer(peak, outcome, truthful_outcome):
                return i, x
    return None
