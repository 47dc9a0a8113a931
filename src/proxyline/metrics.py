"""Outcome-quality measures: social cost and distance to the true median."""

from __future__ import annotations

from .model import Scenario, _check_finite, unweighted_median, wm_winner


def social_cost(scenario: Scenario, outcome: float) -> float:
    """Sum of distances of all voters' TRUE positions to the outcome.

    Proxies count at their peaks, never at declared positions.
    """
    _check_finite(outcome, "outcome")
    return sum(abs(p - outcome) for p in scenario.all_positions())


def delta(scenario: Scenario, declared: list[float]) -> float:
    """|unweighted median - weighted-median winner position| at a state."""
    med = unweighted_median(scenario, declared)
    _, wm = wm_winner(scenario, declared)
    return abs(med - wm)


def true_median(scenario: Scenario) -> float:
    """Median of the full truthful population."""
    return unweighted_median(scenario, scenario.truthful_state())

