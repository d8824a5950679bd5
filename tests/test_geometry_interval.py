"""Tests for repro.geometry.interval."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Interval

bounds = st.integers(min_value=-500, max_value=500)


@st.composite
def intervals(draw):
    a = draw(bounds)
    b = draw(bounds)
    return Interval.spanning(a, b)


class TestInterval:
    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_spanning_orders(self):
        assert Interval.spanning(5, 1) == Interval(1, 5)

    def test_point_interval(self):
        iv = Interval(4, 4)
        assert iv.length == 0
        assert iv.count == 1
        assert iv.contains(4)

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 8))
        assert not Interval(0, 10).contains_interval(Interval(2, 12))

    def test_overlaps_closed_touching(self):
        assert Interval(0, 5).overlaps(Interval(5, 9))
        assert not Interval(0, 5).overlaps_open(Interval(5, 9))

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 2).intersection(Interval(4, 6)) is None

    def test_hull(self):
        assert Interval(0, 2).hull(Interval(5, 7)) == Interval(0, 7)

    def test_expanded_and_clamp(self):
        assert Interval(2, 4).expanded(3) == Interval(-1, 7)
        assert Interval(2, 4).clamp(0) == 2
        assert Interval(2, 4).clamp(9) == 4
        assert Interval(2, 4).clamp(3) == 3

    def test_iteration(self):
        assert list(Interval(2, 5)) == [2, 3, 4, 5]

    @given(intervals(), intervals())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(intervals(), intervals())
    def test_intersection_consistent_with_overlap(self, a, b):
        inter = a.intersection(b)
        assert (inter is not None) == a.overlaps(b)
        if inter is not None:
            assert a.contains_interval(inter)
            assert b.contains_interval(inter)
