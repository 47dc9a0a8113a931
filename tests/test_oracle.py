"""Brute-force oracle behavior and agreement with the analytic machinery."""

import random

import pytest

from proxyline import (
    DominatingVerdict,
    GridBudgetError,
    GridSpec,
    SamplingBudgetError,
    Scenario,
    better_response_set,
    characterize_truthful_manipulability,
    observe,
    oracle_best_deviation,
    oracle_dominating_check,
)
from proxyline.fixtures import load_fixture


def test_gridspec_budget_guard():
    with pytest.raises(GridBudgetError):
        GridSpec(0.0, 100.0, 1e-6)
    # (upper - lower) / step overflows to inf: over any budget, not an OverflowError
    with pytest.raises(GridBudgetError):
        GridSpec(-1e308, 1e308, 0.25)


def test_example2_best_deviation_just_left_of_one():
    sc = load_fixture("example1").scenario
    best = oracle_best_deviation(sc, sc.truthful_state(), 1, GridSpec(-5.0, 5.0, 0.01))
    assert best is not None
    pos, improvement = best
    assert 0.98 < pos < 1.0  # winning reports top out just below 1
    assert improvement > 1.98


def test_pne_state_has_no_deviation():
    sc = load_fixture("fig3_one_side").scenario
    grid = GridSpec(-10.0, 10.0, 0.25)
    for j in range(sc.num_proxies):
        assert oracle_best_deviation(sc, sc.truthful_state(), j, grid) is None


def test_nonmanipulable_scenarios_scan_clean():
    sc = Scenario((-1.0, 0.0, 2.0), (0.5, -0.5))  # a peak sits at the median
    assert not characterize_truthful_manipulability(sc).manipulable
    grid = GridSpec(-8.0, 8.0, 0.25)
    for j in range(sc.num_proxies):
        assert oracle_best_deviation(sc, sc.truthful_state(), j, grid) is None


def test_agreement_with_better_response_set():
    rng = random.Random(23)
    for _ in range(80):
        m = rng.randint(1, 4)
        n = rng.randint(0, 6)
        sc = Scenario(
            tuple(float(rng.randint(-6, 6)) for _ in range(m)),
            tuple(float(rng.randint(-6, 6)) for _ in range(n)),
        )
        state = [float(rng.randint(-6, 6)) for _ in range(m)]
        lo, hi = sc.bounding_box()
        grid = GridSpec(lo, hi, 0.25)
        for j in range(m):
            brs = better_response_set(sc, state, j)
            found = oracle_best_deviation(sc, state, j, grid)
            has_grid_member = any(
                brs.contains(x) for x in grid.points()
            )
            assert (found is not None) == has_grid_member


class TestDominatingCheck:
    def test_appendix_b_29_dominates(self):
        sc = load_fixture("appendix_b").scenario
        obs = observe(sc, sc.truthful_state())
        res = oracle_dominating_check(sc, obs, 1, 29.0, profile_samples=300, seed=5)
        assert res.verdict == DominatingVerdict.DOMINATING

    def test_staying_put_never_strictly_better(self):
        sc = load_fixture("appendix_b").scenario
        obs = observe(sc, sc.truthful_state())
        res = oracle_dominating_check(sc, obs, 1, 90.0, profile_samples=100, seed=5)
        assert res.verdict == DominatingVerdict.NEVER_STRICTLY_BETTER

    def test_crossing_far_past_winner_hurts_somewhere(self):
        sc = load_fixture("appendix_b").scenario
        obs = observe(sc, sc.truthful_state())
        res = oracle_dominating_check(sc, obs, 1, -60.0, profile_samples=500, seed=5)
        assert res.verdict == DominatingVerdict.NOT_WEAKLY_BETTER
        assert res.counterexample is not None

    def test_requires_samples(self):
        sc = load_fixture("appendix_b").scenario
        obs = observe(sc, sc.truthful_state())
        with pytest.raises(ValueError):
            oracle_dominating_check(sc, obs, 1, 29.0, profile_samples=0, seed=5)

    def test_inconsistent_observation_exhausts_budget(self):
        from proxyline import ObservedState

        sc = Scenario((0.0, 1.0))
        bogus = ObservedState((0.0, 1.0), winner_id=1)  # proxy 0 wins every tie
        with pytest.raises(SamplingBudgetError):
            oracle_dominating_check(sc, bogus, 1, 0.5, profile_samples=3, seed=1)
