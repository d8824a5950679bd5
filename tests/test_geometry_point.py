"""Tests for repro.geometry.point."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point, manhattan
from repro.geometry.point import bounding_box_half_perimeter

coords = st.integers(min_value=-10_000, max_value=10_000)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_unpacking(self):
        x, y = Point(3, 4)
        assert (x, y) == (3, 4)

    def test_manhattan_to(self):
        assert Point(0, 0).manhattan_to(Point(3, 4)) == 7

    def test_chebyshev_to(self):
        assert Point(0, 0).chebyshev_to(Point(3, 4)) == 4

    def test_is_aligned_with(self):
        assert Point(3, 7).is_aligned_with(Point(3, 0))
        assert Point(3, 7).is_aligned_with(Point(9, 7))
        assert not Point(3, 7).is_aligned_with(Point(4, 8))

    def test_hashable_and_ordered(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2
        assert Point(1, 2) < Point(2, 1)

    @given(points, points)
    def test_manhattan_symmetry(self, a, b):
        assert manhattan(a, b) == manhattan(b, a)

    @given(points, points, points)
    def test_manhattan_triangle_inequality(self, a, b, c):
        assert manhattan(a, c) <= manhattan(a, b) + manhattan(b, c)

    @given(points, points)
    def test_chebyshev_le_manhattan(self, a, b):
        assert a.chebyshev_to(b) <= manhattan(a, b)


class TestBoundingBoxHalfPerimeter:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box_half_perimeter([])

    def test_single_point_is_zero(self):
        assert bounding_box_half_perimeter([Point(5, 5)]) == 0

    def test_two_points(self):
        assert bounding_box_half_perimeter([Point(0, 0), Point(3, 4)]) == 7

    @given(st.lists(points, min_size=1, max_size=20))
    def test_equals_rect_half_perimeter(self, pts):
        from repro.geometry import Rect

        assert bounding_box_half_perimeter(pts) == Rect.bounding(pts).half_perimeter

    @given(st.lists(points, min_size=2, max_size=20))
    def test_lower_bounds_pairwise_distance(self, pts):
        hp = bounding_box_half_perimeter(pts)
        assert all(manhattan(a, b) <= hp for a in pts for b in pts)
