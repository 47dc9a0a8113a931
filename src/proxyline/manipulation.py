"""Better-response sets, manipulability characterization, and PNE tests.

The analytic route here works from the median-voter geometry: moving one
proxy while the rest stay put clamps the combined median into a fixed
window, so the outcome as a function of the deviation has at most five
pieces (two constant tails, two boundary points, one identity stretch).
The winner rule :func:`proxyline.model.wm_winner`, evaluated on the whole
changed state, stays independent of that geometry and cross-checks every
claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import INF, Interval, IntervalSet
from .metrics import true_median
from .model import Scenario, nearer, nearest, wm_winner


@dataclass(frozen=True)
class ManipulationVerdict:
    manipulable: bool
    witness_proxy: int | None = None
    witness_position: float | None = None


@dataclass(frozen=True)
class OutcomePieces:
    """Outcome of a single proxy's deviation, as a function of the report.

    Attributes mirror the geometry: outside ``(left_edge, right_edge)`` the
    outcome is constant; at the edges the tie-resolved value applies; inside,
    the deviator wins and the outcome equals its report. The ``*_tie_win``
    flags mark edges whose outcome equals the report only because the
    deviator wins an exact-distance tie by lower index.
    """

    left_edge: float
    right_edge: float
    left_const: float | None  # outcome for x < left_edge (None when unbounded win region)
    right_const: float | None
    left_edge_outcome: float | None  # outcome exactly at left_edge
    right_edge_outcome: float | None
    left_edge_tie_win: bool = False
    right_edge_tie_win: bool = False

    def outcome(self, x: float) -> float:
        if x < self.left_edge:
            return self.left_const  # type: ignore[return-value]
        if x == self.left_edge and self.left_edge_outcome is not None:
            return self.left_edge_outcome
        if x > self.right_edge:
            return self.right_const  # type: ignore[return-value]
        if x == self.right_edge and self.right_edge_outcome is not None:
            return self.right_edge_outcome
        return x


def _median_window(scenario: Scenario, declared: list[float], proxy_id: int):
    """Bounds the combined median can take as ``proxy_id`` moves.

    Returns (lo, hi, others) where others is [(position, id), ...] and the
    median of the full state equals clamp(x, lo, hi) when the proxy
    declares x.
    """
    others = [(p, k) for k, p in enumerate(declared) if k != proxy_id]
    fs = scenario.sorted_followers
    k = (len(declared) + len(fs) - 1) // 2  # 0-based rank of ``hi`` in the pool
    # with m-1 others, only fs[k-m : k+1] can sit at rank k-1 or k; the
    # stable sort keeps the objects (and zero signs) a whole-pool sort picks
    start = max(0, k - len(declared))
    pool = sorted([p for p, _ in others] + fs[start : k + 1])
    lo = pool[k - 1 - start] if k >= 1 else -INF
    hi = pool[k - start] if k - start < len(pool) else INF
    return lo, hi, others


def outcome_pieces(scenario: Scenario, declared: list[float], proxy_id: int) -> OutcomePieces:
    """Piecewise outcome function for a single proxy's report."""
    lo, hi, others = _median_window(scenario, declared, proxy_id)
    if not others:  # single proxy: it always wins, outcome is its report
        return OutcomePieces(-INF, INF, None, None, None, None)
    # ``others`` ascends by id, so a nearest tie keeps the lower one
    positions = [p for p, _ in others]

    if math.isinf(lo):
        left_edge, left_const, left_edge_outcome = -INF, None, None
        left_tie = False
    else:
        pos_lo, k_lo = others[nearest(positions, lo)]
        left_edge = lo - abs(pos_lo - lo)
        # at the edge the deviator ties the nearest fixed proxy; lower index wins
        left_edge_outcome = left_edge if proxy_id < k_lo or pos_lo == left_edge else pos_lo
        left_tie = proxy_id < k_lo and pos_lo != left_edge
        left_const = pos_lo
    if math.isinf(hi):
        right_edge, right_const, right_edge_outcome = INF, None, None
        right_tie = False
    else:
        pos_hi, k_hi = others[nearest(positions, hi)]
        right_edge = hi + abs(pos_hi - hi)
        right_edge_outcome = right_edge if proxy_id < k_hi or pos_hi == right_edge else pos_hi
        right_tie = proxy_id < k_hi and pos_hi != right_edge
        right_const = pos_hi
    return OutcomePieces(
        left_edge, right_edge, left_const, right_const,
        left_edge_outcome, right_edge_outcome, left_tie, right_tie,
    )


def is_better_response(
    scenario: Scenario, declared: list[float], proxy_id: int, candidate: float
) -> bool:
    """True iff reporting ``candidate`` strictly improves the proxy's outcome.

    Computed with :func:`~proxyline.model.wm_winner` on both states,
    independently of the geometric machinery above.
    """
    if not math.isfinite(candidate):
        raise ValueError("candidate must be finite")
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
) -> IntervalSet:
    """Exact set of strictly improving reports for one proxy.

    ``include_tie_wins=False`` drops the boundary reports that only help
    because the mover wins an exact-distance tie by its lower index; the
    distance-contraction laws of monotone play hold for all remaining
    moves, so the built-in policies restrict themselves to that subset.
    """
    peak = scenario.proxy_peaks[proxy_id]
    _, current = wm_winner(scenario, declared)
    cur_d = abs(current - peak)
    if cur_d == 0:
        return IntervalSet.empty()

    pieces = outcome_pieces(scenario, declared, proxy_id)
    out: list[Interval] = []

    # identity stretch: outcome == report, improving inside the open ball
    lo = max(pieces.left_edge, peak - cur_d)
    hi = min(pieces.right_edge, peak + cur_d)
    if lo < hi:
        out.append(Interval(lo, hi, True, True))
    # boundary points with tie-resolved outcomes
    for edge, edge_outcome, tie_win in (
        (pieces.left_edge, pieces.left_edge_outcome, pieces.left_edge_tie_win),
        (pieces.right_edge, pieces.right_edge_outcome, pieces.right_edge_tie_win),
    ):
        if edge_outcome is not None and math.isfinite(edge):
            if abs(edge_outcome - peak) < cur_d:
                if include_tie_wins or not tie_win:
                    out.append(Interval.point(edge))
    # constant tails
    if pieces.left_const is not None and math.isfinite(pieces.left_edge):
        if abs(pieces.left_const - peak) < cur_d:
            out.append(Interval(-INF, pieces.left_edge, True, True))
    if pieces.right_const is not None and math.isfinite(pieces.right_edge):
        if abs(pieces.right_const - peak) < cur_d:
            out.append(Interval(pieces.right_edge, INF, True, True))
    return IntervalSet(out)


def is_pne(scenario: Scenario, declared: list[float], include_tie_wins: bool = True) -> bool:
    """True iff no proxy has any better response.

    In discrete space only grid reports count; in continuous space the
    analytic set must be empty. With ``include_tie_wins=False`` the check
    ignores deviations that improve only by winning an index tie (the
    equilibrium notion the monotone convergence law is stated for).
    """
    for j in range(scenario.num_proxies):
        brs = better_response_set(scenario, declared, j, include_tie_wins=include_tie_wins)
        if scenario.space.is_discrete:
            if brs.has_grid_point(scenario.space.step):
                return False
        elif not brs.is_empty():
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
        base = abs(truthful_outcome - peak)
        for x in dict.fromkeys(declared):
            followers = list(scenario.follower_positions)
            followers[i] = x
            trial = scenario.with_followers(tuple(followers))
            _, outcome = wm_winner(trial, declared)
            if abs(outcome - peak) < base:
                return i, x
    return None
