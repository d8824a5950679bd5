"""Axis-parallel wire segments and rectilinear paths.

A routed two-terminal connection is a :class:`Path`: an ordered list of
alternating horizontal/vertical :class:`Segment` objects.  Paths carry
the geometric queries the metrics layer needs (length, corner count,
corner positions) and the validity checks the test-suite leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from repro.geometry.interval import Interval
from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True, slots=True)
class Segment:
    """A horizontal or vertical wire segment between two grid points.

    Degenerate (zero-length) segments are permitted: they arise when a
    terminal already lies on the track the path turns on.
    """

    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a.x != self.b.x and self.a.y != self.b.y:
            raise ValueError(f"Segment {self.a}-{self.b} is not axis-parallel")

    @staticmethod
    def horizontal(y: int, x1: int, x2: int) -> "Segment":
        """A horizontal segment on row ``y`` (endpoints in any order)."""
        return Segment(Point(min(x1, x2), y), Point(max(x1, x2), y))

    @staticmethod
    def vertical(x: int, y1: int, y2: int) -> "Segment":
        """A vertical segment on column ``x`` (endpoints in any order)."""
        return Segment(Point(x, min(y1, y2)), Point(x, max(y1, y2)))

    @property
    def is_horizontal(self) -> bool:
        return self.a.y == self.b.y

    @property
    def is_vertical(self) -> bool:
        return self.a.x == self.b.x

    @property
    def is_point(self) -> bool:
        return self.a == self.b

    @property
    def length(self) -> int:
        return self.a.manhattan_to(self.b)

    @property
    def track(self) -> int:
        """The fixed coordinate: y for horizontal, x for vertical.

        For degenerate segments the y coordinate is returned (the
        segment is reported as horizontal).
        """
        return self.a.y if self.is_horizontal else self.a.x

    @property
    def span(self) -> Interval:
        """The varying coordinate range as an interval."""
        if self.is_horizontal:
            return Interval.spanning(self.a.x, self.b.x)
        return Interval.spanning(self.a.y, self.b.y)

    @property
    def bounds(self) -> Rect:
        return Rect.from_points(self.a, self.b)

    def contains_point(self, p: Point) -> bool:
        return self.bounds.contains_point(p)

    def points(self) -> Iterator[Point]:
        """All integer grid points on the segment, endpoint to endpoint."""
        if self.is_horizontal:
            step = 1 if self.b.x >= self.a.x else -1
            for x in range(self.a.x, self.b.x + step, step):
                yield Point(x, self.a.y)
        else:
            step = 1 if self.b.y >= self.a.y else -1
            for y in range(self.a.y, self.b.y + step, step):
                yield Point(self.a.x, y)

    def reversed(self) -> "Segment":
        return Segment(self.b, self.a)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.a}->{self.b}"


@dataclass(frozen=True, slots=True)
class Path:
    """A rectilinear path as a contiguous sequence of segments.

    The constructor validates contiguity (each segment starts where the
    previous one ended).  Corner counting follows the paper: a corner is
    a direction change between a horizontal and a vertical segment;
    degenerate segments never contribute corners.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if prev.b != nxt.a:
                raise ValueError(
                    f"Discontiguous path: {prev} then {nxt}"
                )

    @staticmethod
    def from_points(points: Sequence[Point]) -> "Path":
        """Build a path through consecutive axis-aligned points."""
        if len(points) < 2:
            raise ValueError("Path.from_points needs at least two points")
        return Path(tuple(Segment(a, b) for a, b in zip(points, points[1:])))

    @property
    def start(self) -> Point:
        return self.segments[0].a

    @property
    def end(self) -> Point:
        return self.segments[-1].b

    @property
    def length(self) -> int:
        """Total wire length."""
        return sum(seg.length for seg in self.segments)

    @property
    def corner_count(self) -> int:
        """Number of direction changes along the path."""
        return len(self.corners())

    def corners(self) -> list[Point]:
        """The points where the path changes direction.

        Degenerate segments are skipped, so a path that merely passes
        through a zero-length stub does not accrue a corner there.
        """
        directions: list[tuple[str, Point]] = []
        for seg in self.segments:
            if seg.is_point:
                continue
            directions.append(("H" if seg.is_horizontal else "V", seg.a))
        result: list[Point] = []
        for (d1, _), (d2, start) in zip(directions, directions[1:]):
            if d1 != d2:
                result.append(start)
        return result

    def points(self) -> Iterator[Point]:
        """All grid points visited, without duplicating the joints."""
        first = True
        for seg in self.segments:
            for i, p in enumerate(seg.points()):
                if i == 0 and not first:
                    continue
                yield p
            first = False

    def waypoints(self) -> list[Point]:
        """Endpoint sequence: start plus each segment's far endpoint."""
        return [self.segments[0].a, *(seg.b for seg in self.segments)]

    @property
    def bounds(self) -> Rect:
        box = self.segments[0].bounds
        for seg in self.segments[1:]:
            box = box.hull(seg.bounds)
        return box

    def connects(self, a: Point, b: Point) -> bool:
        """True when the path endpoints equal ``{a, b}`` in some order."""
        return (self.start, self.end) in ((a, b), (b, a))

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " ".join(str(s) for s in self.segments)


def total_wire_length(paths: Iterable[Path]) -> int:
    """Sum of the lengths of a collection of paths."""
    return sum(p.length for p in paths)
