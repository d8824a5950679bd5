"""Closed integer intervals on a line.

The greedy channel router books vertical runs as :class:`Interval`
values, and rectangles, segments, track lists and the Lee search
region give their extents as them.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator


@dataclass(frozen=True, order=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` with ``lo <= hi``.

    Single grid points are represented as degenerate intervals with
    ``lo == hi``.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"Interval lo={self.lo} > hi={self.hi}")

    @staticmethod
    def spanning(a: int, b: int) -> "Interval":
        """Interval between two endpoints given in either order."""
        return Interval(a, b) if a <= b else Interval(b, a)

    @property
    def length(self) -> int:
        """Geometric length ``hi - lo`` (0 for a point)."""
        return self.hi - self.lo

    @property
    def count(self) -> int:
        """Number of integer grid positions covered."""
        return self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        """True when ``lo <= value <= hi``."""
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` lies entirely inside this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """True when the two closed intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def overlaps_open(self, other: "Interval") -> bool:
        """True when the two intervals share more than a single endpoint.

        Useful for channel routing, where trunks of different nets may
        abut at a column but not properly overlap.
        """
        return self.lo < other.hi and other.lo < self.hi

    def intersection(self, other: "Interval") -> "Interval" | None:
        """The common sub-interval, or ``None`` when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def hull(self, other: "Interval") -> "Interval":
        """The smallest interval containing both."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def expanded(self, margin: int) -> "Interval":
        """The interval grown by ``margin`` on both sides."""
        return Interval(self.lo - margin, self.hi + margin)

    def clamp(self, value: int) -> int:
        """The closest point of the interval to ``value``."""
        return min(max(value, self.lo), self.hi)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo},{self.hi}]"
