"""Social cost and distance-to-median checks against the worked appendices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyline import Scenario, delta, social_cost, true_median
from proxyline.fixtures import load_fixture


@pytest.fixture
def appendix_a():
    return load_fixture("appendix_a").scenario


@pytest.fixture
def appendix_b():
    return load_fixture("appendix_b").scenario


def test_appendix_a_truthful_cost(appendix_a):
    assert social_cost(appendix_a, -11.0) == 84.0


def test_appendix_a_final_cost(appendix_a):
    assert social_cost(appendix_a, 5.0) == 86.0


def test_appendix_b_costs(appendix_b):
    assert social_cost(appendix_b, -30.0) == 210.0
    assert social_cost(appendix_b, 25.0) == 235.0


def test_social_cost_counts_proxy_peaks_not_declarations(appendix_b):
    # the declared state never enters: cost is a function of the outcome only
    assert social_cost(appendix_b, -30.0) == 210.0


def test_social_cost_rejects_nonfinite(appendix_b):
    with pytest.raises(ValueError):
        social_cost(appendix_b, float("inf"))


def test_delta_example1():
    sc = load_fixture("example1").scenario
    assert delta(sc, [-1.0, 1.5]) == 1.0


def test_delta_zero_when_winner_at_median():
    sc = Scenario((0.0, 5.0), (-1.0, 1.0))
    assert delta(sc, [0.0, 5.0]) == 0.0


def test_delta_appendix_b(appendix_b):
    assert delta(appendix_b, [-30.0, 90.0]) == 30.0


@given(st.data())
@settings(max_examples=150)
def test_median_minimizes_social_cost(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(0, 6))
    grid = st.integers(-10, 10).map(float)
    sc = Scenario(
        tuple(data.draw(grid) for _ in range(m)),
        tuple(data.draw(grid) for _ in range(n)),
    )
    med = true_median(sc)
    best = social_cost(sc, med)
    for k in range(-40, 41):
        assert best <= social_cost(sc, k * 0.5) + 1e-12
