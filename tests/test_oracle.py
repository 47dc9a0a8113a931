"""Brute-force oracle behavior and agreement with the analytic machinery."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyline import (
    DominatingVerdict,
    GridSpec,
    InconsistentObservationError,
    ObservedState,
    Scenario,
    better_response_set,
    characterize_truthful_manipulability,
    deviation_reports,
    init_belief,
    is_better_response,
    observe,
    oracle_best_deviation,
    oracle_dominating_check,
    oracle_max_regret,
    wm_winner,
)
from proxyline.claims import theorem2_oracle_agreement
from proxyline.fixtures import load_fixture
from proxyline.oracle import _windows


def test_example2_best_deviation_just_left_of_one():
    sc = load_fixture("example1").scenario
    best = oracle_best_deviation(sc, sc.truthful_state(), 1, GridSpec(-5.0, 5.0, 0.01))
    assert best is not None
    pos, improvement = best
    assert 0.98 < pos < 1.0  # winning reports top out just below 1
    assert improvement > 1.98


def test_gridspec_iterates_its_points():
    assert list(GridSpec(0.0, 1.0, 0.5)) == [0.0, 0.5, 1.0]


def exact_best(sc, state, j):
    return oracle_best_deviation(sc, state, j, deviation_reports(sc, state, j))


def test_example1_exact_deviation_wins_left_of_one():
    sc = load_fixture("example1").scenario
    best = exact_best(sc, sc.truthful_state(), 1)
    assert best is not None
    pos, improvement = best
    assert 0.0 <= pos < 1.0  # the improving reports are the open interval (-1, 1)
    assert is_better_response(sc, sc.truthful_state(), 1, pos)


def test_pne_state_has_no_deviation():
    sc = load_fixture("fig3_one_side").scenario
    for j in range(sc.num_proxies):
        assert exact_best(sc, sc.truthful_state(), j) is None


def test_nonmanipulable_scenarios_scan_clean():
    sc = Scenario((-1.0, 0.0, 2.0), (0.5, -0.5))  # a peak sits at the median
    assert not characterize_truthful_manipulability(sc).manipulable
    for j in range(sc.num_proxies):
        assert exact_best(sc, sc.truthful_state(), j) is None


def random_states(seed, count, draw):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 4)
        n = rng.randint(0, 6)
        sc = Scenario(tuple(draw(rng) for _ in range(m)), tuple(draw(rng) for _ in range(n)))
        yield sc, [draw(rng) for _ in range(m)]


FAMILIES = {
    "integer": lambda rng: float(rng.randint(-6, 6)),
    "decimal": lambda rng: round(rng.randint(-20, 20) / 10, 1),
}


def test_agreement_with_better_response_set():
    # on integer states every edge of the analytic set is exact
    for sc, state in random_states(23, 200, FAMILIES["integer"]):
        for j in range(sc.num_proxies):
            found = exact_best(sc, state, j)
            assert (found is not None) == bool(better_response_set(sc, state, j))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_no_report_improves_where_the_exact_oracle_finds_none(family):
    for sc, state in random_states(31, 60, FAMILIES[family]):
        positions = sc.all_positions()
        low, high = min(positions), max(positions)
        span = max(high - low, 1.0)
        lo, hi = low - span, high + span  # the positions' span padded by itself
        grid = GridSpec(lo - 1.0, hi + 1.0, 0.05)
        for j in range(sc.num_proxies):
            if exact_best(sc, state, j) is None:
                assert not any(is_better_response(sc, state, j, x) for x in grid)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_returned_position_is_a_better_response(family):
    for sc, state in random_states(37, 100, FAMILIES[family]):
        for j in range(sc.num_proxies):
            found = exact_best(sc, state, j)
            if found is not None:
                assert is_better_response(sc, state, j, found[0])


@pytest.mark.parametrize("followers", [(0.0,), (1e308, -1e308, 0.0)])
@pytest.mark.parametrize("proxies", [(-1e308, 1e308), (-1.7e308, 1.7e308)])
def test_wide_positions_give_finite_reports(proxies, followers):
    sc = Scenario(proxies, followers)
    truthful = sc.truthful_state()
    assert all(math.isfinite(x) for j in (0, 1) for x in deviation_reports(sc, truthful, j))
    ok, detail = theorem2_oracle_agreement(sc)
    assert ok, detail


def test_improvement_past_float_max_is_exact_not_nan():
    from fractions import Fraction

    sc = Scenario((-1.7e308, 1.7e308), (1e308,))
    truthful = sc.truthful_state()
    found = oracle_best_deviation(sc, truthful, 0, deviation_reports(sc, truthful, 0))
    assert found is not None
    pos, improvement = found
    _, outcome = wm_winner(sc, [pos, 1.7e308])
    peak = Fraction(-1.7e308)
    assert improvement == float(abs(Fraction(1.7e308) - peak) - abs(Fraction(outcome) - peak))


def test_reflection_past_an_intermediate_overflow():
    # 2·1e308 − 5e307 overflows on the way but not in the end
    sc = Scenario((5e307, 1.7e308), (1e308,))
    assert 1.5e308 in deviation_reports(sc, sc.truthful_state(), 1)


class TestDominatingCheck:
    def test_appendix_b_29_dominates(self):
        sc = load_fixture("appendix_b").scenario
        obs = observe(sc, sc.truthful_state())
        res = oracle_dominating_check(obs, 1, 29.0, 90.0)
        assert res.verdict == DominatingVerdict.DOMINATING

    def test_staying_put_never_strictly_better(self):
        sc = load_fixture("appendix_b").scenario
        obs = observe(sc, sc.truthful_state())
        res = oracle_dominating_check(obs, 1, 90.0, 90.0)
        assert res.verdict == DominatingVerdict.NEVER_STRICTLY_BETTER

    def test_crossing_far_past_winner_hurts_somewhere(self):
        sc = load_fixture("appendix_b").scenario
        obs = observe(sc, sc.truthful_state())
        res = oracle_dominating_check(obs, 1, -60.0, 90.0)
        assert res.verdict == DominatingVerdict.NOT_WEAKLY_BETTER
        assert res.counterexample == (-210.0, -210.0, -210.0)
        world = sc.with_followers(res.counterexample)
        assert wm_winner(world, [-30.0, 90.0]) == (0, -30.0)
        assert wm_winner(world, [-30.0, -60.0]) == (1, -60.0)

    def test_inconsistent_observation_raises(self):
        bogus = ObservedState((0.0, 0.0), 1)  # proxy 0 wins every tie
        with pytest.raises(InconsistentObservationError):
            oracle_dominating_check(bogus, 1, 0.5, 3.0)

    @pytest.mark.parametrize(
        "declared, winner, proxy_id, candidate, peak",
        [
            # the harming medians fill the open gap (2, 2.5) between breakpoints
            ((1.0, 3.0, -1.0, 2.0), 3, 3, -3.0, -2.0),
            # the harming median sits one float off the rounded midpoint -2.5
            ((-2.9, -2.1), 1, 0, -2.5, 1.9),
            # the point past the lower end would overflow; its float neighbour harms
            ((-1.7e308, 1.7e308), 0, 0, 1e308, -1.7e308),
        ],
    )
    def test_hidden_harm_is_found(self, declared, winner, proxy_id, candidate, peak):
        res = oracle_dominating_check(ObservedState(declared, winner), proxy_id, candidate, peak)
        assert res.verdict == DominatingVerdict.NOT_WEAKLY_BETTER
        world = Scenario(declared, res.counterexample)
        deviated = list(declared)
        deviated[proxy_id] = candidate
        assert wm_winner(world, list(declared))[0] == winner
        assert abs(wm_winner(world, deviated)[1] - peak) > abs(declared[winner] - peak)

    def test_agrees_with_every_small_follower_profile(self):
        # a harm among the profiles of up to 3 followers on a grid is a harm
        # the exact check finds; each harm it finds is a profile wm_winner
        # confirms
        grid = [float(k) for k in range(-7, 8)]
        profiles = [f for n in range(4) for f in itertools.combinations_with_replacement(grid, n)]
        rng = random.Random(4)
        harms = 0
        for _ in range(60):
            m = rng.randint(2, 4)
            declared = [float(rng.randint(-5, 5)) for _ in range(m)]
            hidden = tuple(float(rng.randint(-5, 5)) for _ in range(rng.randint(0, 3)))
            obs = observe(Scenario(tuple(declared), hidden), declared)
            j, x, peak = rng.randrange(m), rng.randint(-12, 12) / 2, float(rng.randint(-6, 6))
            deviated = declared[:j] + [x] + declared[j + 1 :]
            before = declared[obs.winner_id]

            def harmed(followers):
                world = Scenario(tuple(declared), followers)
                if wm_winner(world, declared)[0] != obs.winner_id:
                    return False
                return abs(wm_winner(world, deviated)[1] - peak) > abs(before - peak)

            res = oracle_dominating_check(obs, j, x, peak)
            if res.verdict == DominatingVerdict.NOT_WEAKLY_BETTER:
                harms += 1
                assert harmed(res.counterexample)
            else:
                assert not any(map(harmed, profiles))
        assert harms >= 20


def realized_regret(world, declared, j, candidate):
    """Proxy j's regret for ``candidate`` at the world's own followers: its
    outcome's distance from the peak minus the least distance any report
    reaches (:func:`deviation_reports` reach every outcome)."""
    peak = world.proxy_peaks[j]

    def distance(x):
        return abs(wm_winner(world, declared[:j] + [x] + declared[j + 1 :])[1] - peak)

    return distance(candidate) - min(map(distance, deviation_reports(world, declared, j)))


@st.composite
def own_polls(draw, max_proxies, max_followers):
    """A small integer scenario, its truthful state's poll, a proxy and a
    half-integer candidate report."""
    integer = st.integers(-6, 6).map(float)
    m, n = draw(st.integers(2, max_proxies)), draw(st.integers(0, max_followers))
    sc = Scenario(tuple(draw(integer) for _ in range(m)), tuple(draw(integer) for _ in range(n)))
    belief = init_belief(observe(sc, sc.truthful_state()))
    return sc, belief, draw(st.integers(0, m - 1)), draw(st.integers(-14, 14)) / 2


class TestMaxRegretAgainstFollowers:
    @given(poll=own_polls(max_proxies=4, max_followers=6))
    @settings(max_examples=300, deadline=None)
    def test_bounds_the_regret_at_the_true_followers(self, poll):
        sc, belief, j, candidate = poll
        value = oracle_max_regret(belief, j, candidate, sc.proxy_peaks[j])
        assert realized_regret(sc, sc.truthful_state(), j, candidate) <= value

    @given(poll=own_polls(max_proxies=3, max_followers=4))
    @settings(max_examples=60, deadline=None)
    def test_is_the_worst_window_profile(self, poll):
        # each window's followers (lo,)*(q+1) + (hi,)*(p+1) make a world,
        # and the oracle's value is the worst of their realized regrets
        sc, belief, j, candidate = poll
        peak, declared, iv = sc.proxy_peaks[j], sc.truthful_state(), belief.interval
        extra = [candidate, peak] + [x for x in (iv.lo, iv.hi) if math.isfinite(x)]
        worst = max(
            realized_regret(sc.with_followers((lo,) * (len(declared) - p) + (hi,) * (p + 1)),
                            declared, j, candidate)
            for lo, hi, p in _windows(belief.observed, j, extra)
            if iv.contains(min(max(declared[j], lo), hi))
        )
        value = oracle_max_regret(belief, j, candidate, peak)
        assert worst == pytest.approx(value, rel=1e-9, abs=1e-9)
