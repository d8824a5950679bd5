"""Tests for repro.geometry.rect."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point, Rect

coord = st.integers(min_value=-1000, max_value=1000)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


class TestRectBasics:
    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 4, 10)
        with pytest.raises(ValueError):
            Rect(0, 5, 10, 4)

    def test_degenerate_allowed(self):
        r = Rect(3, 3, 3, 3)
        assert r.area == 0
        assert r.contains_point(Point(3, 3))

    def test_dimensions(self):
        r = Rect(1, 2, 5, 9)
        assert (r.width, r.height, r.area, r.half_perimeter) == (4, 7, 28, 11)

    def test_from_points_any_order(self):
        assert Rect.from_points(Point(5, 1), Point(2, 8)) == Rect(2, 1, 5, 8)

    def test_bounding(self):
        pts = [Point(0, 5), Point(3, 1), Point(-2, 2)]
        assert Rect.bounding(pts) == Rect(-2, 1, 3, 5)
        with pytest.raises(ValueError):
            Rect.bounding([])

    def test_center(self):
        assert Rect(0, 0, 10, 6).center == Point(5, 3)

    def test_corners(self):
        ll, lr, ur, ul = Rect(0, 0, 2, 3).corners()
        assert (ll, lr, ur, ul) == (Point(0, 0), Point(2, 0), Point(2, 3), Point(0, 3))


class TestRectRelations:
    def test_overlap_vs_open_overlap_on_edges(self):
        a, b = Rect(0, 0, 5, 5), Rect(5, 0, 9, 5)
        assert a.overlaps(b)
        assert not a.overlaps_open(b)

    def test_intersection(self):
        a, b = Rect(0, 0, 5, 5), Rect(3, 2, 9, 9)
        assert a.intersection(b) == Rect(3, 2, 5, 5)
        assert a.intersection(Rect(6, 6, 7, 7)) is None

    def test_hull(self):
        assert Rect(0, 0, 1, 1).hull(Rect(5, 5, 6, 6)) == Rect(0, 0, 6, 6)

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 8, 8))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 11, 8))

    def test_expanded(self):
        assert Rect(2, 2, 4, 4).expanded(2) == Rect(0, 0, 6, 6)

    @given(rects(), rects())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)
        assert a.overlaps_open(b) == b.overlaps_open(a)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        assert (inter is not None) == a.overlaps(b)
        if inter:
            assert a.contains_rect(inter)
            assert b.contains_rect(inter)

    @given(rects(), rects())
    def test_hull_contains_both(self, a, b):
        h = a.hull(b)
        assert h.contains_rect(a)
        assert h.contains_rect(b)

    @given(rects())
    def test_intervals_match(self, r):
        assert (r.x_interval.lo, r.x_interval.hi) == (r.x1, r.x2)
        assert (r.y_interval.lo, r.y_interval.hi) == (r.y1, r.y2)
