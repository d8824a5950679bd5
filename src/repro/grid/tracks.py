"""Sorted track coordinate sets with coordinate/index mapping."""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence

from repro.geometry import Interval


class TrackSet:
    """An ordered set of routing-track coordinates.

    The paper's grid model allows tracks with different spacing: the
    over-cell grid is a uniform lattice at the m3/m4 pitch *plus* one
    track through every terminal so that each net terminal can be
    assigned "a pair of horizontal and vertical tracks" (section 3).
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable[int]) -> None:
        self._coords: list[int] = sorted({int(c) for c in coords})
        if not self._coords:
            raise ValueError("TrackSet needs at least one track")

    @staticmethod
    def uniform(lo: int, hi: int, pitch: int, extra: Iterable[int] = ()) -> "TrackSet":
        """Tracks every ``pitch`` units across ``[lo, hi]`` plus ``extra``.

        Extra coordinates outside ``[lo, hi]`` are rejected: a terminal
        off the routing area indicates an upstream bug.
        """
        if pitch <= 0:
            raise ValueError("pitch must be positive")
        if lo > hi:
            raise ValueError(f"empty track range [{lo},{hi}]")
        coords = list(range(lo, hi + 1, pitch))
        if coords[-1] != hi:
            coords.append(hi)
        for c in extra:
            if not lo <= c <= hi:
                raise ValueError(f"extra track {c} outside [{lo},{hi}]")
            coords.append(c)
        return TrackSet(coords)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._coords)

    def __iter__(self) -> Iterator[int]:
        return iter(self._coords)

    def __getitem__(self, index: int) -> int:
        return self._coords[index]

    @property
    def coords(self) -> Sequence[int]:
        return self._coords

    @property
    def span(self) -> Interval:
        return Interval(self._coords[0], self._coords[-1])

    def index_of(self, coord: int) -> int:
        """Exact index of a track coordinate (raises when absent)."""
        pos = bisect.bisect_left(self._coords, coord)
        if pos == len(self._coords) or self._coords[pos] != coord:
            raise KeyError(f"no track at coordinate {coord}")
        return pos

    def has(self, coord: int) -> bool:
        pos = bisect.bisect_left(self._coords, coord)
        return pos < len(self._coords) and self._coords[pos] == coord

    def nearest_index(self, coord: int) -> int:
        """Index of the track closest to ``coord`` (ties go low)."""
        pos = bisect.bisect_left(self._coords, coord)
        if pos == 0:
            return 0
        if pos == len(self._coords):
            return len(self._coords) - 1
        before, after = self._coords[pos - 1], self._coords[pos]
        return pos if (after - coord) < (coord - before) else pos - 1

    def index_range(self, lo_coord: int, hi_coord: int) -> range:
        """Indices of all tracks with coordinates in ``[lo, hi]``."""
        lo = bisect.bisect_left(self._coords, lo_coord)
        hi = bisect.bisect_right(self._coords, hi_coord)
        return range(lo, hi)

    def clip_indices(self, iv: Interval) -> Interval:
        """Clamp an index interval to valid indices."""
        return Interval(max(0, iv.lo), min(len(self._coords) - 1, iv.hi))

    def distance(self, i: int, j: int) -> int:
        """Geometric distance between tracks ``i`` and ``j``."""
        return abs(self._coords[i] - self._coords[j])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrackSet({len(self)} tracks {self._coords[0]}..{self._coords[-1]})"
