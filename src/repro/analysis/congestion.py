"""Routing-resource congestion maps.

Bins the occupancy grid into a coarse matrix of slot-utilisation
fractions - the quantity the level B cost function's ``acf`` term reads
locally, here computed globally for analysis and visualisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid import RoutingGrid


@dataclass(frozen=True)
class CongestionMap:
    """A bins_y x bins_x matrix of utilisation fractions in [0, 1]."""

    values: tuple[tuple[float, ...], ...]  # row-major, row 0 = bottom

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.values), len(self.values[0]) if self.values else 0)

    @property
    def peak(self) -> float:
        return max((v for row in self.values for v in row), default=0.0)

    @property
    def mean(self) -> float:
        cells = [v for row in self.values for v in row]
        return sum(cells) / len(cells) if cells else 0.0

    def hotspots(self, threshold: float = 0.5) -> list[tuple[int, int]]:
        """Bin coordinates ``(row, col)`` whose utilisation >= threshold."""
        out = []
        for r, row in enumerate(self.values):
            for c, v in enumerate(row):
                if v >= threshold:
                    out.append((r, c))
        return out

    def to_ascii(self) -> str:
        """Digit heatmap, top row first ('.' = empty, 0-9 = decile)."""
        lines = []
        for row in reversed(self.values):
            chars = []
            for v in row:
                if v <= 0.0:
                    chars.append(".")
                else:
                    chars.append(str(min(9, int(v * 10))))
            lines.append("".join(chars))
        return "\n".join(lines)


def congestion_map(
    grid: RoutingGrid, bins_x: int = 20, bins_y: int = 12
) -> CongestionMap:
    """Bin the grid's used slots into a ``bins_y x bins_x`` map.

    A slot counts as used when it carries routed wire or an obstacle
    (free capacity is what matters to an unrouted net).
    """
    if bins_x < 1 or bins_y < 1:
        raise ValueError("bins must be positive")
    nv, nh = grid.num_vtracks, grid.num_htracks
    # snapshot() hands back read-only copies; the grid's own arrays are
    # private to repro.grid.
    snap = grid.snapshot()
    used_h = (snap.h_owner != 0).astype(np.int64)  # [h][v]
    used_v = (snap.v_owner != 0).astype(np.int64).T  # -> [h][v]
    used = used_h + used_v
    rows: list[tuple[float, ...]] = []
    for by in range(bins_y):
        h_lo = by * nh // bins_y
        h_hi = max(h_lo + 1, (by + 1) * nh // bins_y)
        row: list[float] = []
        for bx in range(bins_x):
            v_lo = bx * nv // bins_x
            v_hi = max(v_lo + 1, (bx + 1) * nv // bins_x)
            window = used[h_lo:h_hi, v_lo:v_hi]
            capacity = 2 * window.size
            row.append(float(window.sum()) / capacity if capacity else 0.0)
        rows.append(tuple(row))
    return CongestionMap(values=tuple(rows))
