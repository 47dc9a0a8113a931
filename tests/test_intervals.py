"""Interval and interval-set semantics: flags and normalization."""

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


def test_nan_is_in_no_interval():
    assert not Interval(-math.inf, math.inf).contains(math.nan)
    assert not IntervalSet([Interval.point(0.0)]).contains(math.nan)


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
