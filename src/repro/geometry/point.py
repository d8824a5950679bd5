"""Integer grid points and Manhattan distance."""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple


class Point(NamedTuple):
    """An integer point on the routing grid.

    ``Point`` is a :class:`~typing.NamedTuple`, so it is hashable,
    comparable and unpackable (``x, y = p``).
    """

    x: int
    y: int

    def manhattan_to(self, other: "Point") -> int:
        """Rectilinear (L1) distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def chebyshev_to(self, other: "Point") -> int:
        """Chessboard (L-infinity) distance to ``other``."""
        return max(abs(self.x - other.x), abs(self.y - other.y))

    def is_aligned_with(self, other: "Point") -> bool:
        """True when the two points share an x or y coordinate."""
        return self.x == other.x or self.y == other.y

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x},{self.y})"


def manhattan(a: Point, b: Point) -> int:
    """Rectilinear distance between two points (free-function form)."""
    return abs(a.x - b.x) + abs(a.y - b.y)


def bounding_box_half_perimeter(points: Iterable[Point]) -> int:
    """Half-perimeter of the bounding box of ``points``.

    This is the classic HPWL net-length estimate and the paper's
    "longest distance" net-ordering key.  Raises :class:`ValueError`
    on an empty iterable.
    """
    it = iter(points)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("bounding_box_half_perimeter of empty point set")
    min_x = max_x = first.x
    min_y = max_y = first.y
    for p in it:
        min_x = min(min_x, p.x)
        max_x = max(max_x, p.x)
        min_y = min(min_y, p.y)
        max_y = max(max_y, p.y)
    return (max_x - min_x) + (max_y - min_y)
