"""Interval semantics: open/closed flags, intersection and mirroring."""

import math

import pytest

from proxyline import Interval


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
    assert not Interval.point(0.0).contains(math.nan)


def test_infinite_bounds_forced_open():
    iv = Interval(-math.inf, 3.0, False, False)
    assert iv.lo_open and not iv.hi_open


def test_negation_mirrors_through_zero_and_swaps_flags():
    assert -Interval(-1.0, 2.5, True, False) == Interval(-2.5, 1.0, False, True)
    assert -Interval(-math.inf, 0.0, True, False) == Interval(-0.0, math.inf, False, True)
    dom = Interval(2.0, 4.0, False, True)
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

