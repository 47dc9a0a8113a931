"""Iterative play: policies, scheduling and traces.

One proxy moves per step. A policy proposes a report; the engine accepts
it only if it is a strict better response (full information) or a genuine
position change (partial information, where dominating moves may leave
the outcome unchanged). A full round of passes ends the run.

A policy's own proposal only ever wins strictly (never by an index tie):
a non-winner's report must be exactly nearer the current median than the
winner (:func:`~proxyline.model.nearer`), and one rounded onto the
winner's distance is a pass. So monotone play keeps Lemmas 3-4 exact, and
:func:`proxyline.claims.check_delta_lemmas` decides them with no tolerance. The
truth-oriented rule, the discrete best response and a winner's monotone
step choose among the improving pieces of
:func:`proxyline.manipulation.improving_pieces`, never an index-tie win.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError, ScenarioValidationError
from .intervals import Interval
from .manipulation import improving_pieces, is_better_response
from .metrics import delta
from .model import (
    Scenario, _check_proxy, _check_state, _finite_number, nearer, nearest, unweighted_median,
    wm_winner,
)
from .partial_info import (
    BeliefState,
    ObservedState,
    init_belief,
    minimax_regret_strategy,
    observe,
    update_belief,
)

OSCILLATION_TOL = 1e-9
OSCILLATION_WINDOW = 16  # moves in the tail that must repeat with period 2


def outcome_tol(w: float) -> float:
    """How near two outcomes around ``w`` must be to count as one:
    ``OSCILLATION_TOL``, relative once ``|w|`` exceeds 1."""
    return OSCILLATION_TOL * max(1.0, abs(w))


class PolicyKind(enum.Enum):
    MONOTONE_BETTER_RESPONSE = "monotone_better_response"
    DISCRETE_BEST_RESPONSE = "discrete_best_response"
    OSCILLATING_ALPHA = "oscillating_alpha"
    MINIMAX_REGRET = "minimax_regret"
    SCRIPTED = "scripted"


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of one proxy's strategy rule. A parameter
    that the kind does not read must keep its default; building a spec
    checks that, and the ranges of the parameters."""

    kind: PolicyKind
    fraction: float = 0.5
    alpha1: float = 0.25
    decay: float = 0.5
    positions: tuple[float, ...] = ()
    truth_oriented: bool = False

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(self.positions))  # hashable, as in Scenario
        reads = {"kind", "truth_oriented", *_POLICIES[self.kind].params}
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ConfigurationError(f"{self.kind.value} does not use {f.name}")
        # an unread parameter keeps its default, which is in range
        for name in ("fraction", "alpha1", "decay"):
            if not _finite_number(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a finite number", name)
        if not 0 < self.fraction <= 1:
            raise ConfigurationError("fraction must be in (0, 1]", "fraction")
        if not self.alpha1 > 0:
            raise ConfigurationError("alpha1 must be positive", "alpha1")
        if not 0 < self.decay < 1:
            raise ConfigurationError("decay must be in (0, 1)", "decay")
        if not isinstance(self.truth_oriented, bool):
            raise ConfigurationError("truth_oriented must be a bool", "truth_oriented")
        for k, p in enumerate(self.positions):
            if not _finite_number(p):
                raise ConfigurationError(f"scripted position {p!r} is not finite", f"positions[{k}]")

    def validate(self, scenario: Scenario, mode: str) -> None:
        """The checks that depend on the scenario's space or the mode: a kind
        plays only in a mode it has a proposal for, in the space it needs."""
        if self.truth_oriented and mode == "partial_info":
            raise ConfigurationError(
                "truth_oriented is not used under partial_info mode", "truth_oriented"
            )
        policy = _POLICIES[self.kind]
        if (policy.full if mode == "full_info" else policy.partial) is None:
            other = "partial_info" if mode == "full_info" else "full_info"
            raise ConfigurationError(f"{self.kind.value} requires {other} mode", "kind")
        if policy.space is not None and (policy.space == "discrete") != scenario.space.is_discrete:
            raise ConfigurationError(f"{self.kind.value} requires {policy.space} space", "kind")
        for k, p in enumerate(self.positions):
            if not scenario.space.on_grid(p):
                raise ConfigurationError(f"scripted position {p} off grid", f"positions[{k}]")


@dataclass(frozen=True)
class Scheduler:
    """Turn order: the scripted ``order`` first, then round-robin, so every
    proxy keeps getting turns (no starvation) and a full passing round can
    certify a PNE. An empty order is plain round-robin."""

    order: tuple[int, ...] = ()

    @staticmethod
    def round_robin() -> "Scheduler":
        return Scheduler()

    @staticmethod
    def scripted(order: list[int]) -> "Scheduler":
        return Scheduler(tuple(order))

    def proxy_at(self, turn: int, num_proxies: int) -> int:
        if turn < len(self.order):
            return self.order[turn]
        return (turn - len(self.order)) % num_proxies

    def validate(self, num_proxies: int) -> None:
        for j in self.order:
            if type(j) is not int or not 0 <= j < num_proxies:
                raise ConfigurationError(f"scheduler order references unknown proxy {j!r}")


@dataclass(frozen=True)
class MoveRecord:
    t: int  # 1-based accepted-move index
    mover: int
    from_pos: float
    to_pos: float
    winner_before: int
    winner_after: int
    wm_before: float
    wm_after: float
    median_after: float
    delta_after: float


class StopReason(enum.Enum):
    PNE = "pne"
    CONVERGED = "converged"
    MAX_STEPS = "max_steps"
    OSCILLATION_DETECTED = "oscillation_detected"


@dataclass
class DynamicsTrace:
    scenario: Scenario
    initial_declared: list[float]
    records: list[MoveRecord]
    final_declared: list[float]
    stop_reason: StopReason
    interval_history: list[Interval] = field(default_factory=list)  # partial mode
    initial_belief: BeliefState | None = None  # the belief a run was started from, if given

    @property
    def limit_delta(self) -> float | None:
        """The final Δ of a run that stopped in a 2-cycle, else None."""
        oscillated = self.stop_reason == StopReason.OSCILLATION_DETECTED
        return self.records[-1].delta_after if oscillated else None

    @property
    def initial_delta(self) -> float:
        return delta(self.scenario, self.initial_declared)

    @property
    def final_delta(self) -> float:
        if self.records:
            return self.records[-1].delta_after
        return self.initial_delta

    def final_outcome(self) -> float:
        return wm_winner(self.scenario, self.final_declared)[1]

    def initial_outcome(self) -> float:
        return wm_winner(self.scenario, self.initial_declared)[1]

    @property
    def converged(self) -> bool:
        """The run settled on one outcome: a PNE, a certified partial-information
        poll, or a detected tail whose last two outcomes agree within
        :func:`outcome_tol`. A 2-cycle between distinct outcomes and a run
        cut at its step budget have not converged."""
        if self.stop_reason in (StopReason.PNE, StopReason.CONVERGED):
            return True
        if self.stop_reason != StopReason.OSCILLATION_DETECTED:
            return False
        last, prev = self.records[-1].wm_after, self.records[-2].wm_after
        return abs(last - prev) <= outcome_tol(last)


# ---------------------------------------------------------------------------
# policy proposal logic


def _propose_monotone(
    scenario: Scenario, declared: list[float], mover: int,
    spec: PolicySpec, records: list[MoveRecord],
) -> float | None:
    peak = scenario.proxy_peaks[mover]
    cur = declared[mover]
    med = unweighted_median(scenario, declared)
    winner_id, wm = wm_winner(scenario, declared)
    dlt = abs(med - wm)
    space = scenario.space

    if mover == winner_id:
        # meta-continuation: edge toward the peak while still winning strictly
        stretch = next(
            (p.reports for p in improving_pieces(scenario, declared, mover, wm) if p.outcome is None),
            None,
        )
        toward = 1.0 if peak > cur else -1.0
        if stretch is None or toward * (peak - med) < 0:
            return None
        limit = stretch.hi if toward > 0 else stretch.lo  # the far end, toward the peak
        # a far end past float max is ±inf, and every finite float up to it
        # lies in the exact improving ball: aim at the largest finite one
        limit = min(max(limit, -sys.float_info.max), sys.float_info.max)
        if toward * (limit - cur) <= 0:
            return None
        span = limit - cur
        if math.isfinite(span):
            x = cur + spec.fraction * span
        else:  # a span past float max: the same step, taken on the halves
            x = 2.0 * (cur / 2.0 + spec.fraction * (limit / 2.0 - cur / 2.0))
        if toward * (x - limit) >= 0:  # rounded onto or past the far end
            x = math.nextafter(limit, cur)
        if space.is_discrete:
            return space.grid_point(Interval.open(min(cur, limit), max(cur, limit)), x)
        return x

    if peak == med:
        return peak if cur != peak else None
    own = 1.0 if peak > med else -1.0
    dist_peak = abs(peak - med)
    if dist_peak < dlt:
        return peak if cur != peak else None  # peak wins outright and is optimal
    if own * (wm - med) > 0:
        return None  # winner already on this side and closer: no monotone gain
    if dlt == 0:
        return None
    target = (1.0 - spec.fraction) * dlt
    target = float(math.floor(target)) if space.is_discrete else target  # on the grid: <= target
    x = med + own * target
    return x if x != cur and nearer(med, x, wm) else None


def _propose_discrete_best(
    scenario: Scenario, declared: list[float], mover: int,
    spec: PolicySpec, records: list[MoveRecord],
) -> float | None:
    peak = scenario.proxy_peaks[mover]
    cur = declared[mover]
    _, wm = wm_winner(scenario, declared)
    # (outcome distance, |x - cur|, x) for the grid report nearest the peak in
    # each improving piece; boundary reports are skipped (strict wins only)
    candidates = []
    for piece in improving_pieces(scenario, declared, mover, wm):
        if piece.reports.lo < piece.reports.hi:
            x = scenario.space.grid_point(piece.reports, peak)
            if x is not None and x != cur:
                outcome = x if piece.outcome is None else piece.outcome
                candidates.append((abs(outcome - peak), abs(x - cur), x))
    return min(candidates)[2] if candidates else None


def _propose_oscillating(
    scenario: Scenario, declared: list[float], mover: int,
    spec: PolicySpec, records: list[MoveRecord],
) -> float | None:
    peak = scenario.proxy_peaks[mover]
    med = unweighted_median(scenario, declared)
    _, wm = wm_winner(scenario, declared)
    dlt = abs(med - wm)
    alpha = spec.alpha1 * (spec.decay ** len(records))
    if peak == med or alpha >= dlt:
        return None
    sign = 1.0 if med > peak else -1.0
    x = med - sign * (dlt - alpha)
    return x if x != declared[mover] and nearer(med, x, wm) else None


def _propose_scripted(
    _seen, _own, mover: int, spec: PolicySpec, records: list[MoveRecord]
) -> float | None:
    """The next listed position, whatever the proxy sees, in either mode."""
    k = sum(1 for r in records if r.mover == mover)
    return spec.positions[k] if k < len(spec.positions) else None


def _truth_override(scenario: Scenario, declared: list[float], mover: int) -> float | None:
    """The truth-oriented rule: report the peak when it is an improving report
    that wins by no index tie. No other report then gets an outcome nearer it."""
    peak = scenario.proxy_peaks[mover]
    if declared[mover] == peak:
        return None
    _, wm = wm_winner(scenario, declared)
    improving = improving_pieces(scenario, declared, mover, wm)
    return peak if any(p.reports.contains(peak) and not p.tie_win for p in improving) else None


@dataclass(frozen=True)
class _Policy:
    """One policy kind: the parameter fields it reads besides ``truth_oriented``,
    the space it needs (None: either), and its proposal in each mode (None:
    it cannot play there). A full-information proposal takes ``(scenario,
    declared, mover, spec, records)``; a partial-information one takes
    ``(belief, peak, mover, spec, records)``, so it never sees the followers."""

    params: tuple[str, ...]
    space: str | None
    full: Callable[..., float | None] | None
    partial: Callable[..., float | None] | None


_POLICIES = {
    PolicyKind.MONOTONE_BETTER_RESPONSE: _Policy(("fraction",), None, _propose_monotone, None),
    PolicyKind.DISCRETE_BEST_RESPONSE: _Policy((), "discrete", _propose_discrete_best, None),
    PolicyKind.OSCILLATING_ALPHA: _Policy(
        ("alpha1", "decay"), "continuous", _propose_oscillating, None
    ),
    PolicyKind.MINIMAX_REGRET: _Policy(
        (), None, None,
        lambda belief, peak, mover, spec, records: minimax_regret_strategy(belief, mover, peak),
    ),
    PolicyKind.SCRIPTED: _Policy(("positions",), None, _propose_scripted, _propose_scripted),
}


def propose(
    scenario: Scenario,
    declared: list[float],
    mover: int,
    spec: PolicySpec,
    records: list[MoveRecord],
    belief: BeliefState | None,
) -> float | None:
    """The policy's proposed report, or None to pass. ``belief`` is None
    under full information, where truth-oriented policies may report
    their peak first; under partial information the proposal gets the
    belief and the mover's peak in place of the scenario."""
    policy = _POLICIES[spec.kind]
    if belief is not None:
        return policy.partial(belief, scenario.proxy_peaks[mover], mover, spec, records)
    if spec.truth_oriented:
        override = _truth_override(scenario, declared, mover)
        if override is not None:
            return override
    return policy.full(scenario, declared, mover, spec, records)


def step(
    scenario: Scenario,
    declared: list[float],
    mover: int,
    spec: PolicySpec,
    records: list[MoveRecord] | None = None,
    belief: BeliefState | None = None,
) -> MoveRecord | None:
    """One proxy's turn: propose, validate, and build the move record.

    Without a belief the full-information rules apply and a proposal must
    be a strict better response; with one (partial information) any
    on-grid position change is accepted. Returns None when the proxy
    passes (no proposal, or a proposal those rules reject). Raises
    :class:`ConfigurationError` when ``spec`` cannot be played in this
    scenario's space or in the mode the belief implies, and
    :class:`ScenarioValidationError` for a ``mover`` outside [0, m).

    A belief must be a poll of ``declared`` (``belief.observed.declared ==
    tuple(declared)``); one polled at another state is refused, neither
    trusted nor re-evaluated. A partial-information record takes
    ``winner_before`` from that poll, and ``winner_after`` as the proxy
    nearest the new state's median (Lemma 1), so the turn evaluates only
    the state it creates.
    """
    spec.validate(scenario, "full_info" if belief is None else "partial_info")
    _check_proxy(len(scenario.proxy_peaks), mover, "mover")
    if belief is not None:
        _check_state(scenario, declared)
        polled = belief.observed
        if polled.declared != tuple(declared) or type(polled.winner_id) is not int \
                or not 0 <= polled.winner_id < len(declared):
            raise ScenarioValidationError("belief", "its poll is not of the declared state")
    records = records if records is not None else []
    proposal = propose(scenario, declared, mover, spec, records, belief)
    if proposal is None or proposal == declared[mover] or not scenario.space.on_grid(proposal):
        return None
    if belief is None and not is_better_response(scenario, declared, mover, proposal):
        return None
    after = list(declared)
    after[mover] = proposal
    if belief is None:
        winner_before, wm_before = wm_winner(scenario, declared)
        winner_after, wm_after = wm_winner(scenario, after)
        med_after = unweighted_median(scenario, after)
    else:
        winner_before = belief.observed.winner_id
        wm_before = declared[winner_before]
        med_after = unweighted_median(scenario, after)
        winner_after = nearest(after, med_after)
        wm_after = after[winner_after]
    return MoveRecord(
        t=len(records) + 1,
        mover=mover,
        from_pos=declared[mover],
        to_pos=proposal,
        winner_before=winner_before,
        winner_after=winner_after,
        wm_before=wm_before,
        wm_after=wm_after,
        median_after=med_after,
        delta_after=abs(med_after - wm_after),
    )


def _certified(belief: BeliefState) -> bool:
    """The poll pins the outcome: the median interval, which holds every
    median the polls allow (the true one included), is at most
    ``outcome_tol(w)`` wide and the announced winner w lies within that
    tolerance of both its bounds. Reads only public data."""
    w, iv = belief.winner_position, belief.interval
    tol = outcome_tol(w)
    return iv.hi - iv.lo <= tol and w - iv.lo <= tol and iv.hi - w <= tol


def run_dynamics(
    scenario: Scenario,
    scheduler: Scheduler,
    policies: list[PolicySpec],
    max_steps: int,
    mode: str = "full_info",
    initial_declared: list[float] | None = None,
    initial_belief: BeliefState | None = None,
) -> DynamicsTrace:
    """Iterate single-proxy moves until PNE, a certified convergence, the
    step budget, or oscillation.

    The default initial state is truthful. PNE is certified by a full
    round of passes. Under partial information the poll after each move
    may certify the outcome (:func:`_certified`). The oscillation
    detector, the fallback, looks for a settled 2-cycle of winner
    positions. An ``initial_belief`` must be a poll of the initial state,
    as :func:`step` requires.
    """
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 1:
        raise ConfigurationError("max_steps must be an integer >= 1")
    if mode not in ("full_info", "partial_info"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if initial_belief is not None and mode == "full_info":
        raise ConfigurationError("an initial belief needs partial_info mode")
    if len(policies) != scenario.num_proxies:
        raise ConfigurationError("one policy per proxy required")
    for spec in policies:
        spec.validate(scenario, mode)
    scheduler.validate(scenario.num_proxies)

    initial = list(initial_declared) if initial_declared is not None else scenario.truthful_state()
    declared = list(initial)
    belief: BeliefState | None = None
    interval_history: list[Interval] = []
    if mode == "partial_info":
        belief = initial_belief if initial_belief is not None else init_belief(observe(scenario, declared))
        interval_history.append(belief.interval)

    records: list[MoveRecord] = []
    passed: set[int] = set()  # proxies that passed since the last accepted move
    repeats = 0  # consecutive moves that repeat the move two before, within tolerance
    turn = 0
    stop = StopReason.MAX_STEPS

    while True:
        if len(records) >= max_steps:
            stop = StopReason.MAX_STEPS
            break
        mover = scheduler.proxy_at(turn, scenario.num_proxies)
        turn += 1
        rec = step(scenario, declared, mover, policies[mover], records, belief)
        if rec is None:
            passed.add(mover)
            if len(passed) == scenario.num_proxies:
                stop = StopReason.PNE
                break
            continue
        passed.clear()
        declared[mover] = rec.to_pos
        records.append(rec)
        if belief is not None:
            # the poll after the move: the record already holds its winner
            belief = update_belief(belief, ObservedState(tuple(declared), rec.winner_after))
            interval_history.append(belief.interval)
            if _certified(belief):
                stop = StopReason.CONVERGED
                break
        if len(records) > 2:
            before, tol = records[-3], outcome_tol(rec.wm_after)
            if abs(rec.wm_after - before.wm_after) > tol or abs(rec.delta_after - before.delta_after) > tol:
                repeats = 0
            else:
                repeats += 1
        # a settled 2-cycle: the last OSCILLATION_WINDOW moves repeat with
        # period 2 (a count of OSCILLATION_WINDOW - 2 needs that many moves)
        if repeats >= OSCILLATION_WINDOW - 2:
            stop = StopReason.OSCILLATION_DETECTED
            break

    return DynamicsTrace(
        scenario=scenario,
        initial_declared=initial,
        records=records,
        final_declared=declared,
        stop_reason=stop,
        interval_history=interval_history,
        initial_belief=initial_belief,
    )
