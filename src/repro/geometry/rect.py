"""Axis-aligned integer rectangles."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.geometry.interval import Interval
from repro.geometry.point import Point


@dataclass(frozen=True, order=True)
class Rect:
    """A closed axis-aligned rectangle ``[x1, x2] x [y1, y2]``.

    Degenerate rectangles (zero width and/or height) are allowed; they
    represent segments or points and are used for pin shapes.
    """

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(
                f"Malformed Rect ({self.x1},{self.y1})-({self.x2},{self.y2})"
            )

    @staticmethod
    def from_points(a: Point, b: Point) -> "Rect":
        """Bounding rectangle of two points given in any order."""
        return Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))

    @staticmethod
    def bounding(points: Iterable[Point]) -> "Rect":
        """Bounding rectangle of a non-empty point collection."""
        pts = list(points)
        if not pts:
            raise ValueError("Rect.bounding of empty point set")
        return Rect(
            min(p.x for p in pts),
            min(p.y for p in pts),
            max(p.x for p in pts),
            max(p.y for p in pts),
        )

    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        """Geometric area (``width * height``)."""
        return self.width * self.height

    @property
    def half_perimeter(self) -> int:
        return self.width + self.height

    @property
    def center(self) -> Point:
        """The integer centre (rounded down)."""
        return Point((self.x1 + self.x2) // 2, (self.y1 + self.y2) // 2)

    @property
    def x_interval(self) -> Interval:
        return Interval(self.x1, self.x2)

    @property
    def y_interval(self) -> Interval:
        return Interval(self.y1, self.y2)

    def contains_point(self, p: Point) -> bool:
        """Closed containment test."""
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def overlaps(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least one point."""
        return (
            self.x1 <= other.x2
            and other.x1 <= self.x2
            and self.y1 <= other.y2
            and other.y1 <= self.y2
        )

    def overlaps_open(self, other: "Rect") -> bool:
        """True when the rectangles share interior area (not just edges)."""
        return (
            self.x1 < other.x2
            and other.x1 < self.x2
            and self.y1 < other.y2
            and other.y1 < self.y2
        )

    def intersection(self, other: "Rect") -> "Rect" | None:
        """The common rectangle, or ``None`` when disjoint."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x1 > x2 or y1 > y2:
            return None
        return Rect(x1, y1, x2, y2)

    def hull(self, other: "Rect") -> "Rect":
        """The smallest rectangle containing both."""
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def expanded(self, margin: int) -> "Rect":
        """The rectangle grown by ``margin`` on every side."""
        return Rect(
            self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin
        )

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corners (ll, lr, ur, ul)."""
        return (
            Point(self.x1, self.y1),
            Point(self.x2, self.y1),
            Point(self.x2, self.y2),
            Point(self.x1, self.y2),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x1},{self.y1})-({self.x2},{self.y2})"
