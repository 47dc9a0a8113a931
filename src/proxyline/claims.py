"""The paper's checkable claims, each written once.

A claim function takes a scenario, plus the states or the trace the claim
is about, and returns ``(ok, detail)``: whether the claim holds there, and
the values that decide it. ``check``, the replications and the acceptance
tests call the same functions, and each ``check`` row is named after the
function that decides it. The trace analysis the claims rest on (meta-move
segments, the distance bound, Lemmas 3-4, monotonicity and replay) lives
here too, so :mod:`proxyline.dynamics` only plays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import DynamicsTrace, StopReason, outcome_tol
from .intervals import Interval
from .manipulation import (
    characterize_truthful_manipulability,
    follower_manipulation_scan,
    is_better_response,
    is_pne,
)
from .metrics import true_median
from .model import (
    Scenario, delegation_weights, nearer, nearest_proxy_to_median, unweighted_median,
    weighted_median, wm_winner,
)
from .oracle import deviation_reports, oracle_best_deviation
from .partial_info import init_belief, observe, update_belief

# ---------------------------------------------------------------------------
# claims on a scenario and its states


def lemma1_equivalence(scenario: Scenario, states: list[list[float]]) -> tuple[bool, str]:
    """Lemma 1 at every state: the proxy nearest the median of all positions
    is the weighted median of the delegation weights (compared with that
    median itself: ``wm_winner`` above its scan size is the nearest proxy)."""
    for state in states:
        near = nearest_proxy_to_median(scenario, state)
        weighted = weighted_median(state, delegation_weights(scenario, state))[0]
        if near != weighted:
            return False, f"at {state}: nearest the median {near}, weighted median {weighted}"
    return True, ""


def theorem1_no_follower_manipulation(scenario: Scenario) -> tuple[bool, str]:
    """Theorem 1: no follower gains by misreporting, by the complete scan."""
    witness = follower_manipulation_scan(scenario)
    return witness is None, f"(follower, misreport) {witness}"


def theorem2_oracle_agreement(scenario: Scenario) -> tuple[bool, str]:
    """Theorem 2: the analytic verdict on the truthful state equals the
    oracle tried at every proxy's deviation reports, and a manipulable
    verdict's witness is a strict better response."""
    verdict = characterize_truthful_manipulability(scenario)
    truthful = scenario.truthful_state()
    found = any(
        oracle_best_deviation(scenario, truthful, j, deviation_reports(scenario, truthful, j))
        is not None
        for j in range(scenario.num_proxies)
    )
    detail = f"analytic {verdict.manipulable}, oracle {found}"
    j, x = verdict.witness_proxy, verdict.witness_position
    if verdict.manipulable and found and not is_better_response(scenario, truthful, j, x):
        return False, f"{detail}; proxy {j}'s witness report {x} is no better response"
    return verdict.manipulable == found, detail


def identical_observed_state(
    scenario: Scenario, alt_followers: tuple[float, ...], state: list[float]
) -> tuple[bool, str]:
    """Figure 7: the two follower profiles give one winner-only poll at ``state``."""
    seen = observe(scenario, state)
    alt_seen = observe(scenario.with_followers(alt_followers), state)
    return seen == alt_seen, f"{seen} vs {alt_seen}"


# ---------------------------------------------------------------------------
# claims on a trace


def delta_lemmas_and_bound(trace: DynamicsTrace) -> tuple[bool, str]:
    """Theorem 3's bound on every trace (:func:`check_bound_invariant`), and
    Lemmas 3-4 on a monotone one (:func:`check_delta_lemmas`)."""
    if not check_bound_invariant(trace):
        return False, "a move leaves the truthful Δ-ball"
    if trace_is_monotone(trace) and not check_delta_lemmas(trace):
        return False, "a monotone trace breaks Lemma 3 or 4"
    return True, ""


def discrete_monotone_converges_to_median(trace: DynamicsTrace) -> tuple[bool, str]:
    """Monotone play reaches the socially optimal median: the run stops as
    ``pne`` at the true median, an equilibrium of the tie-free game
    (``is_pne(..., include_tie_wins=False)``), which the law is stated for."""
    med, final = true_median(trace.scenario), trace.final_outcome()
    detail = f"stop {trace.stop_reason.value}, outcome {final}, med {med}"
    if trace.stop_reason != StopReason.PNE or final != med:
        return False, detail
    if not is_pne(trace.scenario, trace.final_declared, include_tie_wins=False):
        return False, f"{detail}, not an equilibrium: a proxy has a strict better response"
    return True, detail


def interval_holds_each_state_median(trace: DynamicsTrace) -> tuple[bool, str]:
    """A partial-information trace polls each state, the initial one and the
    one after each move, and each poll's median interval holds its median."""
    medians = [unweighted_median(trace.scenario, trace.initial_declared)]
    medians += [rec.median_after for rec in trace.records]
    if len(trace.interval_history) != len(medians):
        return False, f"{len(trace.interval_history)} polls of {len(medians)} states"
    polls = zip(trace.interval_history, medians)
    missed = [k for k, (iv, med) in enumerate(polls) if not iv.contains(med)]
    return not missed, f"polls {missed} miss"


def minimax_regret_reaches_median(trace: DynamicsTrace) -> tuple[bool, str]:
    """The abstract's claim: regret-averse play under partial information
    still reaches the median, within :func:`outcome_tol` of the outcome."""
    med, final = true_median(trace.scenario), trace.final_outcome()
    detail = f"stop {trace.stop_reason.value}, outcome {final}, med {med}"
    return abs(final - med) <= outcome_tol(final), detail


def trace_replays(trace: DynamicsTrace) -> tuple[bool, str]:
    """Every derived field of the trace recomputes (:func:`replay_consistent`)."""
    return replay_consistent(trace), "a recorded field differs from its recomputation"


# ---------------------------------------------------------------------------
# trace analysis


@dataclass(frozen=True)
class MetaSegment:
    """A winning arrival plus its consecutive winning continuations."""

    start: int  # record index of the arrival
    length: int  # number of continuation records (0 = lone arrival)
    mover: int
    entry_delta: float
    exit_delta: float


def detect_meta_moves(trace: DynamicsTrace) -> list[MetaSegment]:
    """Maximal runs of consecutive winning moves by one proxy.

    A segment starts where a non-winner's move makes it the winner;
    its length counts only the continuation moves that follow.
    """
    records = trace.records
    segments = []
    i = 0
    while i < len(records):
        rec, j = records[i], i + 1
        if rec.mover != rec.winner_before and rec.winner_after == rec.mover:
            while j < len(records) and records[j].mover == rec.mover == records[j].winner_after:
                j += 1
            entry = records[i - 1].delta_after if i > 0 else trace.initial_delta
            segments.append(MetaSegment(start=i, length=j - i - 1, mover=rec.mover,
                                        entry_delta=entry, exit_delta=records[j - 1].delta_after))
        i = j
    return segments


def check_bound_invariant(trace: DynamicsTrace) -> bool:
    """Medians and outcomes stay within the truthful Δ-ball around the
    true median, and no mover ever declares across the far bound: x leaves
    the ball iff the truthful outcome is strictly nearer the true median."""
    scenario = trace.scenario
    med0 = true_median(scenario)
    _, wm0 = wm_winner(scenario, scenario.truthful_state())
    for rec in trace.records:
        if nearer(med0, wm0, rec.median_after) or nearer(med0, wm0, rec.wm_after):
            return False
        peak = scenario.proxy_peaks[rec.mover]
        # a report on the peak's own side of the true median may leave the ball
        across = peak <= med0 <= rec.to_pos or rec.to_pos <= med0 <= peak
        if across and nearer(med0, wm0, rec.to_pos):
            return False
    return True


def check_delta_lemmas(trace: DynamicsTrace) -> bool:
    """Lemma 3: every move by a non-winner strictly shrinks Δ. Lemma 4:
    every meta-move leaves Δ below its entry value. Both are decided
    exactly (:func:`~proxyline.model.nearer`) for a monotone trace
    (:func:`trace_is_monotone`), the precondition: its median stays put."""
    records = trace.records
    return all(
        nearer(r.median_after, r.wm_after, r.wm_before) for r in records if r.mover != r.winner_before
    ) and all(
        nearer(records[s.start].median_after, records[s.start + s.length].wm_after,
               records[s.start].wm_before)
        for s in detect_meta_moves(trace)
    )


def trace_is_monotone(trace: DynamicsTrace) -> bool:
    """The unweighted median never moves along the trace, and every move
    stays on the mover's own side of the true median."""
    start = unweighted_median(trace.scenario, trace.initial_declared)
    if any(rec.median_after != start for rec in trace.records):
        return False
    med0, peaks = true_median(trace.scenario), trace.scenario.proxy_peaks
    return not any(
        peaks[rec.mover] < med0 < rec.to_pos or rec.to_pos < med0 < peaks[rec.mover]
        for rec in trace.records
    )


def replay_consistent(trace: DynamicsTrace) -> bool:
    """Recompute every derived field of a trace from scratch.

    A partial-information trace's median intervals are rebuilt from fresh
    polls, starting from the belief the run was given, else from
    :func:`init_belief` on a poll of the initial state.
    """
    declared = list(trace.initial_declared)
    intervals: list[Interval] = []
    if trace.interval_history:
        belief = trace.initial_belief
        if belief is None:
            belief = init_belief(observe(trace.scenario, declared))
        intervals.append(belief.interval)
    for rec in trace.records:
        before = wm_winner(trace.scenario, declared)
        if before != (rec.winner_before, rec.wm_before) or declared[rec.mover] != rec.from_pos:
            return False
        declared[rec.mover] = rec.to_pos
        after = wm_winner(trace.scenario, declared)
        med = unweighted_median(trace.scenario, declared)
        if after != (rec.winner_after, rec.wm_after) or med != rec.median_after \
                or abs(med - after[1]) != rec.delta_after:
            return False
        if intervals:
            belief = update_belief(belief, observe(trace.scenario, declared))
            intervals.append(belief.interval)
    return declared == trace.final_declared and intervals == trace.interval_history
