"""Shelf packing of macro cells into rows with x-coordinate assignment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.geometry import Rect
from repro.netlist import Cell, Design


@dataclass
class PlacedRow:
    """One shelf of cells (left to right)."""

    index: int
    cells: list[Cell] = field(default_factory=list)

    @property
    def height(self) -> int:
        return max((c.height for c in self.cells), default=0)


class RowPlacement:
    """Row assignment plus x coordinates for a design's cells.

    ``channel_count`` is ``rows + 1``: channel 0 runs below row 0,
    channel ``i`` between rows ``i-1`` and ``i``, and the last channel
    above the top row, so every TOP/BOTTOM cell pin faces a channel.
    """

    def __init__(
        self,
        design: Design,
        rows: list[PlacedRow],
        cell_x: dict[str, int],
        pitch: int,
    ) -> None:
        self.design = design
        self.rows = rows
        self.cell_x = cell_x
        self.pitch = pitch
        self.row_of_cell: dict[str, int] = {}
        for row in rows:
            for cell in row.cells:
                self.row_of_cell[cell.name] = row.index

    # ------------------------------------------------------------------
    @staticmethod
    def build(
        design: Design,
        *,
        pitch: int = 8,
        row_width_target: int | None = None,
    ) -> "RowPlacement":
        """Shelf-pack the design's cells into rows.

        Cells are sorted by decreasing height (classic shelf packing,
        deterministic with name tie-breaks) and packed left to right,
        ``2 * pitch`` apart, until the row reaches ``row_width_target``
        (default: the square root of the total cell area, for a roughly
        square core).  All x coordinates are snapped up to ``pitch`` so
        pins land on routing columns.
        """
        if not design.cells:
            raise ValueError("cannot place an empty design")
        gap = 2 * pitch
        cells = sorted(
            design.cells.values(), key=lambda c: (-c.height, -c.width, c.name)
        )
        if row_width_target is None:
            total_area = sum(c.area for c in cells)
            row_width_target = max(
                max(c.width for c in cells),
                int(math.sqrt(total_area)),
            )
        rows: list[PlacedRow] = []
        cell_x: dict[str, int] = {}
        current = PlacedRow(index=0)
        cursor = 0
        for cell in cells:
            if current.cells and cursor + cell.width > row_width_target:
                rows.append(current)
                current = PlacedRow(index=len(rows))
                cursor = 0
            cell_x[cell.name] = cursor
            current.cells.append(cell)
            cursor += cell.width + gap
            cursor = _snap_up(cursor, pitch)
        rows.append(current)
        return RowPlacement(design, rows, cell_x, pitch)

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def channel_count(self) -> int:
        return self.num_rows + 1

    @property
    def core_width(self) -> int:
        """Width of the widest row."""
        return max(
            (
                self.cell_x[row.cells[-1].name] + row.cells[-1].width
                for row in self.rows
                if row.cells
            ),
            default=0,
        )

    def channel_of_pin_row(self, row_index: int, on_top_edge: bool) -> int:
        """Channel a pin faces: TOP-edge pins look up, BOTTOM-edge down."""
        return row_index + 1 if on_top_edge else row_index

    # ------------------------------------------------------------------
    def realize(
        self,
        channel_heights: Sequence[int],
        *,
        left_width: int = 0,
        right_width: int = 0,
        margin: int = 0,
    ) -> Rect:
        """Assign cell origins given the routed channel heights.

        Returns the full layout bounding rectangle (including side
        channels and margins).  May be called repeatedly with different
        heights: each call re-places every cell.
        """
        if len(channel_heights) != self.channel_count:
            raise ValueError(
                f"need {self.channel_count} channel heights, "
                f"got {len(channel_heights)}"
            )
        x0 = margin + left_width
        y = margin
        for i, row in enumerate(self.rows):
            y += channel_heights[i]
            for cell in row.cells:
                cell.place(x0 + self.cell_x[cell.name], y)
            y += row.height
        y += channel_heights[-1]
        total_w = margin * 2 + left_width + right_width + self.core_width
        total_h = y + margin
        return Rect(0, 0, _snap_up(total_w, self.pitch), _snap_up(total_h, self.pitch))

    def channel_y_ranges(
        self, channel_heights: Sequence[int], *, margin: int = 0
    ) -> list[Rect]:
        """The channel strips' y extents (x spans the core width).

        Useful for visualisation; must be called with the same heights
        passed to :meth:`realize`.
        """
        out: list[Rect] = []
        y = margin
        width = self.core_width
        for i in range(self.channel_count):
            out.append(Rect(0, y, width, y + channel_heights[i]))
            y += channel_heights[i]
            if i < self.num_rows:
                y += self.rows[i].height
        return out


def _snap_up(value: int, pitch: int) -> int:
    return ((value + pitch - 1) // pitch) * pitch
