"""Brute-force verifiers: every analytic claim gets an exhaustive twin.

These deliberately avoid the geometric shortcuts in
:mod:`proxyline.manipulation` and :mod:`proxyline.partial_info`; they
re-derive outcomes move by move from the delegation-weight definition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import GridBudgetError
from .model import Scenario, wm_winner
from .partial_info import ObservedState, sample_consistent_profile

GRID_BUDGET = 1_000_000  # most points in one grid scan


@dataclass(frozen=True)
class GridSpec:
    """The points ``lower + k·step`` from ``lower`` to ``upper``; building
    one past :data:`GRID_BUDGET` points raises :class:`GridBudgetError`."""

    lower: float
    upper: float
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        steps = (self.upper - self.lower) / self.step
        # a bound too wide for the step makes the quotient infinite (or NaN)
        if not (math.isfinite(steps) and round(steps) < GRID_BUDGET):
            raise GridBudgetError(
                f"grid from {self.lower} to {self.upper} by {self.step}"
                f" exceeds the {GRID_BUDGET:,}-point budget"
            )

    def count(self) -> int:
        return int(round((self.upper - self.lower) / self.step)) + 1

    def points(self) -> list[float]:
        return [self.lower + k * self.step for k in range(self.count())]


def oracle_best_deviation(
    scenario: Scenario, declared: list[float], proxy_id: int, grid: GridSpec
) -> tuple[float, float] | None:
    """Exhaustive scan for the best single-proxy deviation on a grid.

    Returns (position, improvement) for the deviation whose outcome is
    nearest the proxy's peak, or None when no grid deviation strictly
    improves on the status quo.
    """
    peak = scenario.proxy_peaks[proxy_id]
    _, current = wm_winner(scenario, declared)
    base = abs(current - peak)
    best: tuple[float, float] | None = None
    trial = list(declared)
    for x in grid.points():
        trial[proxy_id] = x
        _, outcome = wm_winner(scenario, trial)
        d = abs(outcome - peak)
        if d < base and (best is None or d < best[1]):
            best = (x, d)
    if best is None:
        return None
    return best[0], base - best[1]


class DominatingVerdict(enum.Enum):
    DOMINATING = "dominating"
    NOT_WEAKLY_BETTER = "not_weakly_better"
    NEVER_STRICTLY_BETTER = "never_strictly_better"


@dataclass(frozen=True)
class DominatingCheck:
    verdict: DominatingVerdict
    counterexample: tuple[float, ...] | None = None


def oracle_dominating_check(
    scenario: Scenario,
    observed: ObservedState,
    proxy_id: int,
    candidate: float,
    profile_samples: int,
    seed: int,
) -> DominatingCheck:
    """Test the two dominating-manipulation conditions on sampled profiles.

    Profiles are drawn consistent with the observation (same winner under
    the full-information rule); the candidate must never hurt on any of
    them and strictly help on at least one.
    """
    if profile_samples < 1:
        raise ValueError("profile_samples must be >= 1")
    peak = scenario.proxy_peaks[proxy_id]
    declared = list(observed.declared)
    deviated = list(declared)
    deviated[proxy_id] = candidate
    strictly_better = False
    for k in range(profile_samples):
        profile = sample_consistent_profile(observed, scenario.num_followers, seed + k)
        world = scenario.with_followers(profile)
        _, before = wm_winner(world, declared)
        _, after = wm_winner(world, deviated)
        if abs(after - peak) > abs(before - peak):
            return DominatingCheck(DominatingVerdict.NOT_WEAKLY_BETTER, profile)
        if abs(after - peak) < abs(before - peak):
            strictly_better = True
    if strictly_better:
        return DominatingCheck(DominatingVerdict.DOMINATING)
    return DominatingCheck(DominatingVerdict.NEVER_STRICTLY_BETTER)
