"""Seeded random scenarios and states for invariant sweeps."""

from __future__ import annotations

import random

from .metrics import true_median
from .model import Scenario, Space

MAX_PROXIES = 4
MAX_FOLLOWERS = 6
LO, HI = -10, 10  # integer position range
SPREAD = 3  # largest perturbation random_state applies to a peak


def random_scenario(
    rng: random.Random,
    space: Space | None = None,
    both_sides: bool = False,
    no_peak_at_median: bool = False,
    min_proxies: int = 1,
) -> Scenario:
    """Integer-position scenario; optionally resampled until the peaks
    straddle the population median with nobody exactly on it."""
    space = space if space is not None else Space.continuous()
    if both_sides:
        min_proxies = max(min_proxies, 2)
    for _ in range(500):
        m = rng.randint(min_proxies, MAX_PROXIES)
        n = rng.randint(0, MAX_FOLLOWERS)
        peaks = tuple(float(rng.randint(LO, HI)) for _ in range(m))
        followers = tuple(float(rng.randint(LO, HI)) for _ in range(n))
        scenario = Scenario(peaks, followers, space)
        med = true_median(scenario)
        if no_peak_at_median and any(p == med for p in peaks):
            continue
        if both_sides and not (
            any(p < med for p in peaks) and any(p > med for p in peaks)
        ):
            continue
        return scenario
    raise RuntimeError("could not generate a scenario matching the constraints")


def random_state(rng: random.Random, scenario: Scenario) -> list[float]:
    """A declared vector obtained by integer perturbations of the peaks."""
    return [p + rng.randint(-SPREAD, SPREAD) for p in scenario.proxy_peaks]
