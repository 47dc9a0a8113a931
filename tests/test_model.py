"""Core model: delegation, weighted median, winner routes, tie rules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyline import (
    EmptyElectorateError,
    Scenario,
    ScenarioValidationError,
    Space,
    delegate,
    delegation_weights,
    nearest_proxy_to_median,
    unweighted_median,
    weighted_median,
    wm_winner,
)
from proxyline.fixtures import load_fixture


@pytest.fixture
def example1():
    return load_fixture("example1").scenario


@pytest.fixture
def appendix_b():
    return load_fixture("appendix_b").scenario


class TestDelegate:
    def test_example1_follower_goes_to_nearer_proxy(self, example1):
        # distance 1 to the proxy at -1 beats distance 1.5 to the one at 1.5
        assert delegate(example1, [-1.0, 1.5]) == [0]

    def test_single_proxy_takes_everyone(self):
        sc = Scenario((2.0,), (-5.0, 0.0, 9.0))
        assert delegate(sc, [2.0]) == [0, 0, 0]

    def test_exact_midpoint_goes_to_lower_index(self):
        sc = Scenario((0.0, 2.0), (1.0,))
        assert delegate(sc, [0.0, 2.0]) == [0]

    def test_midpoint_tie_is_index_not_position_based(self):
        sc = Scenario((2.0, 0.0), (1.0,))
        assert delegate(sc, [2.0, 0.0]) == [0]


class TestWeightedMedian:
    def test_example1_weights(self):
        assert weighted_median([-1.0, 1.5], [2.0, 1.0]) == (0, -1.0)

    def test_singleton(self):
        assert weighted_median([3.25], [7.0]) == (0, 3.25)

    def test_even_unit_weights_take_lower_middle(self):
        # both middle elements qualify; (position, index) ordering picks 1
        assert weighted_median([0.0, 1.0, 2.0, 3.0], [1.0] * 4) == (1, 1.0)

    def test_duplicate_values_qualify(self):
        assert weighted_median([0.0, 0.0, 1.0], [1.0, 1.0, 1.0]) == (0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyElectorateError):
            weighted_median([], [])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_median([1.0], [0.0])

    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=9),
        st.data(),
    )
    @settings(max_examples=200)
    def test_definition_holds(self, values, data):
        weights = data.draw(
            st.lists(
                st.integers(1, 5), min_size=len(values), max_size=len(values)
            )
        )
        values = [float(v) for v in values]
        weights = [float(w) for w in weights]
        idx, val = weighted_median(values, weights)
        total = sum(weights)
        below = sum(w for v, w in zip(values, weights) if v < val)
        above = sum(w for v, w in zip(values, weights) if v > val)
        assert values[idx] == val
        assert below <= total / 2 and above <= total / 2


class TestUnweightedMedian:
    def test_example1(self, example1):
        assert unweighted_median(example1, [-1.0, 1.5]) == 0.0

    def test_appendix_b(self, appendix_b):
        assert unweighted_median(appendix_b, [-30.0, 90.0]) == 0.0

    def test_singleton(self):
        assert unweighted_median(Scenario((4.0,)), [4.0]) == 4.0

    def test_even_multiset_lower_middle(self):
        sc = Scenario((0.0, 1.0), (2.0, 3.0))
        assert unweighted_median(sc, [0.0, 1.0]) == 1.0


class TestWmWinner:
    def test_example1_truthful(self, example1):
        assert wm_winner(example1, [-1.0, 1.5]) == (0, -1.0)

    def test_example2_manipulated(self, example1):
        assert wm_winner(example1, [-1.0, 0.5]) == (1, 0.5)

    def test_appendix_b_truthful(self, appendix_b):
        assert wm_winner(appendix_b, [-30.0, 90.0]) == (0, -30.0)

    def test_winner_position_is_declared(self, example1):
        wid, wpos = wm_winner(example1, [-1.0, 0.75])
        assert wpos == [-1.0, 0.75][wid]


class TestNearestProxyRoute:
    def test_example1(self, example1):
        assert nearest_proxy_to_median(example1, [-1.0, 1.5]) == 0

    def test_equidistant_resolves_like_winner(self):
        # proxies listed high-first: the midpoint follower's delegation tie
        # hands the win to the lower index even at the higher position
        sc = Scenario((1.0, -1.0), (0.0,))
        assert wm_winner(sc, [1.0, -1.0]) == (0, 1.0)
        assert nearest_proxy_to_median(sc, [1.0, -1.0]) == 0

    @given(st.data())
    @settings(max_examples=300)
    def test_agreement_with_weighted_route(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(0, 8))
        grid = st.integers(-5, 5).map(float)
        peaks = tuple(data.draw(grid) for _ in range(m))
        followers = tuple(data.draw(grid) for _ in range(n))
        declared = [data.draw(grid) for _ in range(m)]
        sc = Scenario(peaks, followers)
        assert nearest_proxy_to_median(sc, declared) == wm_winner(sc, declared)[0]


class TestInvariants:
    @given(st.data())
    @settings(max_examples=200)
    def test_weight_conservation(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(0, 8))
        grid = st.integers(-9, 9).map(float)
        sc = Scenario(
            tuple(data.draw(grid) for _ in range(m)),
            tuple(data.draw(grid) for _ in range(n)),
        )
        declared = [data.draw(grid) for _ in range(m)]
        assert sum(delegation_weights(sc, declared)) == m + n

    def test_determinism(self, appendix_b):
        runs = {wm_winner(appendix_b, [-30.0, 90.0]) for _ in range(20)}
        assert len(runs) == 1

    def test_scenario_requires_proxies(self):
        with pytest.raises(ScenarioValidationError):
            Scenario(())

    def test_discrete_grid_validation(self):
        with pytest.raises(ScenarioValidationError):
            Scenario((0.5,), (), Space.discrete(1.0))
        Scenario((0.5,), (), Space.discrete(0.25))  # fine
        for step in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ScenarioValidationError):
                Space(step)

    @pytest.mark.parametrize("space", [Space.continuous(), Space.discrete(0.5)])
    @pytest.mark.parametrize(
        "proxies, followers, path",
        [
            ((math.nan, 1.0), (0.0,), "scenario.proxies[0]"),
            ((0.0, 1.0), (0.0, math.inf), "scenario.followers[1]"),
            ((0.0, -math.inf), (), "scenario.proxies[1]"),
        ],
    )
    def test_nonfinite_positions_rejected(self, space, proxies, followers, path):
        with pytest.raises(ScenarioValidationError) as exc:
            Scenario(proxies, followers, space)
        assert exc.value.path == path

    def test_state_length_checked(self, example1):
        with pytest.raises(ScenarioValidationError):
            wm_winner(example1, [0.0])

