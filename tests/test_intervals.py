"""Interval and interval-set semantics: flags, normalization, grids."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyline import Interval, IntervalSet


def test_point_and_validity():
    assert Interval.point(2.0).contains(2.0)
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0, True, False)


def test_open_bounds_exclude_endpoints():
    iv = Interval.open(0.0, 1.0)
    assert not iv.contains(0.0) and not iv.contains(1.0) and iv.contains(0.5)


def test_infinite_bounds_forced_open():
    iv = Interval(-math.inf, 3.0, False, False)
    assert iv.lo_open and not iv.hi_open


def test_negation_mirrors_through_zero_and_swaps_flags():
    assert -Interval(-1.0, 2.5, True, False) == Interval(-2.5, 1.0, False, True)
    assert -Interval(-math.inf, 0.0, True, False) == Interval(-0.0, math.inf, False, True)
    dom = IntervalSet([Interval.open(-3.0, -1.0), Interval(2.0, 4.0, False, True)])
    assert -dom == IntervalSet([Interval(-4.0, -2.0, True, False), Interval.open(1.0, 3.0)])
    assert -(-dom) == dom


def test_intersection_prefers_tighter_flags():
    a = Interval(0.0, 2.0, False, True)
    b = Interval(0.0, 2.0, True, False)
    got = a.intersect(b)
    assert got == Interval(0.0, 2.0, True, True)


def test_intersection_empty():
    assert Interval.open(0.0, 1.0).intersect(Interval.open(1.0, 2.0)) is None
    closed = Interval(0.0, 1.0, False, False)
    assert closed.intersect(Interval(1.0, 2.0, False, False)) == Interval.point(1.0)


def test_normalization_merges_touching_closed():
    s = IntervalSet([Interval(0.0, 1.0, True, False), Interval(1.0, 2.0, True, True)])
    assert s.intervals == [Interval(0.0, 2.0, True, True)]


def test_normalization_keeps_open_gap():
    s = IntervalSet([Interval.open(0.0, 1.0), Interval.open(1.0, 2.0)])
    assert len(s.intervals) == 2
    assert not s.contains(1.0)


def test_point_merges_into_open_interval():
    s = IntervalSet([Interval.point(1.0), Interval.open(1.0, 2.0)])
    assert s.intervals == [Interval(1.0, 2.0, False, True)]


def test_grid_points_respect_openness():
    # open ends exclude their own grid points, closed ends keep them
    assert Interval.open(0.0, 3.0).nearest_grid_point(-1.0, 1.0) == 1.0
    assert Interval.open(0.0, 3.0).nearest_grid_point(4.0, 1.0) == 2.0
    assert Interval(0.0, 3.0, False, False).nearest_grid_point(-1.0, 1.0) == 0.0
    assert Interval(0.0, 3.0, False, False).nearest_grid_point(4.0, 1.0) == 3.0
    assert not Interval.open(0.0, 1.0).has_grid_point(1.0)
    assert Interval(0.0, 1.0, True, False).has_grid_point(1.0)
    assert Interval(0.0, 1.0, False, True).has_grid_point(1.0)
    assert not Interval.open(5.0, 6.0).has_grid_point(1.0)
    assert Interval.open(5.0, 6.0).has_grid_point(0.25)


def test_halfline_always_has_grid_points():
    assert Interval(-math.inf, 0.0).has_grid_point(1.0)


def test_nearest_grid_point_clamps_into_interval():
    assert Interval.open(0.0, 3.0).nearest_grid_point(7.4, 1.0) == 2.0
    assert Interval(0.0, 3.0, False, False).nearest_grid_point(-5.0, 1.0) == 0.0
    assert Interval.open(0.0, 3.0).nearest_grid_point(1.4, 0.5) == 1.5
    assert Interval(-math.inf, 2.0).nearest_grid_point(9.0, 1.0) == 1.0
    assert Interval(2.0, math.inf).nearest_grid_point(-9.0, 1.0) == 3.0
    assert Interval.open(5.0, 6.0).nearest_grid_point(5.5, 1.0) is None


finite_floats = st.integers(-40, 40).map(lambda k: k / 4.0)


@given(
    st.lists(
        st.tuples(finite_floats, finite_floats, st.booleans(), st.booleans()),
        max_size=6,
    ),
    finite_floats,
)
@settings(max_examples=300)
def test_normalized_membership_matches_raw_union(raw, probe):
    intervals = []
    for lo, hi, lo_open, hi_open in raw:
        if lo < hi or (lo == hi and not lo_open and not hi_open):
            intervals.append(Interval(lo, hi, lo_open, hi_open))
    s = IntervalSet(intervals)
    want = any(iv.contains(probe) for iv in intervals)
    assert s.contains(probe) == want
    # normalized form is sorted and disjoint
    for a, b in zip(s.intervals, s.intervals[1:]):
        assert a.hi < b.lo or (a.hi == b.lo and a.hi_open and b.lo_open)
