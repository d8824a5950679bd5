"""The coarse region model over the level B grid.

"Early Routability Assessment in VLSI Floorplans" (PAPERS.md, arXiv
1810.12789) estimates routability before detailed routing by tiling
the floorplan into regions, annotating each with its geometric routing
*capacity*, and comparing that against the *demand* the netlist's
bounding boxes project onto it.  This module is that model scaled down
to the over-cell grid: the track index space is tiled into coarse
square regions (:data:`REGION_TRACKS` tracks a side), and each region
carries a capacity/demand pair — the tracks threading it against the
terminal windows that overlap it.

Its one consumer is :func:`repro.iterate.iterate_levelb`, which reads
region demand and overflow after each failed pass: the ``congestion``
ordering policy ranks nets by it, and the per-track history charges
the tracks crossing overflowed regions.  As a routability predictor on
its own the overflowed-tile fraction is a coin flip: it did not
separate designs with failed nets from complete ones (AUC 0.50 over 62
designs).

The model never touches occupancy state (docs/ITERATION.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

__all__ = ["REGION_TRACKS", "Region", "RegionModel"]

#: Region edge length in tracks.  Coarse enough that a scale-tier grid
#: has hundreds (not tens of thousands) of regions, fine enough that
#: one region rarely spans more than a few cells of the floorplan.
REGION_TRACKS = 32


@dataclass(frozen=True)
class Region:
    """One coarse tile of the track index space.

    ``capacity`` counts the routing tracks threading the tile (its
    horizontal plus its vertical tracks — the classic global-routing
    edge-capacity measure); ``demand`` charges every net whose window
    overlaps the tile one horizontal and one vertical track, the
    minimum a route crossing the tile consumes.
    """

    row: int
    col: int
    v_lo: int
    v_hi: int
    h_lo: int
    h_hi: int
    capacity: int
    demand: int = 0

    @property
    def utilization(self) -> float:
        return self.demand / self.capacity if self.capacity else 0.0

    @property
    def overflowed(self) -> bool:
        return self.demand > self.capacity


class RegionModel:
    """Region tiling + terminal-window demand for one routing grid.

    Build it with :meth:`build`; the model is immutable afterwards, and
    :mod:`repro.iterate` builds one per run, since terminal windows
    never move.
    """

    def __init__(self, num_vtracks: int, num_htracks: int) -> None:
        self.num_vtracks = num_vtracks
        self.num_htracks = num_htracks
        self.cols = max(1, -(-num_vtracks // REGION_TRACKS))
        self.rows = max(1, -(-num_htracks // REGION_TRACKS))
        self._demand: dict[int, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        num_vtracks: int,
        num_htracks: int,
        windows: Mapping[int, tuple[int, int, int, int]],
    ) -> "RegionModel":
        """Accumulate every net window's demand onto the tiles.

        ``windows`` maps ``net_id`` to the net's window as
        ``(v_lo, v_hi, h_lo, h_hi)`` inclusive track indices (see
        :meth:`repro.core.tig.TrackIntersectionGraph.terminal_windows`).
        Demand lands on *every* region the window overlaps.
        """
        model = cls(num_vtracks, num_htracks)
        for window in windows.values():
            for rid in model.regions_touching(*window):
                # One horizontal + one vertical track per crossing net:
                # the minimum a route through the tile consumes.
                model._demand[rid] = model._demand.get(rid, 0) + 2
        return model

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def bounds_of(self, rid: int) -> tuple[int, int, int, int]:
        """Inclusive track bounds ``(v_lo, v_hi, h_lo, h_hi)`` of a tile."""
        row, col = divmod(rid, self.cols)
        v_lo = col * REGION_TRACKS
        h_lo = row * REGION_TRACKS
        v_hi = min(v_lo + REGION_TRACKS, self.num_vtracks) - 1
        h_hi = min(h_lo + REGION_TRACKS, self.num_htracks) - 1
        return v_lo, v_hi, h_lo, h_hi

    def regions_touching(
        self, v_lo: int, v_hi: int, h_lo: int, h_hi: int
    ) -> list[int]:
        """All region ids a track rectangle overlaps, row-major order."""
        c_lo = min(max(v_lo, 0) // REGION_TRACKS, self.cols - 1)
        c_hi = min(max(v_hi, 0) // REGION_TRACKS, self.cols - 1)
        r_lo = min(max(h_lo, 0) // REGION_TRACKS, self.rows - 1)
        r_hi = min(max(h_hi, 0) // REGION_TRACKS, self.rows - 1)
        return [
            r * self.cols + c
            for r in range(r_lo, r_hi + 1)
            for c in range(c_lo, c_hi + 1)
        ]

    # ------------------------------------------------------------------
    # Capacity and demand
    # ------------------------------------------------------------------
    def capacity(self, rid: int) -> int:
        """Tracks threading a tile: its horizontal plus vertical tracks."""
        v_lo, v_hi, h_lo, h_hi = self.bounds_of(rid)
        return (v_hi - v_lo + 1) + (h_hi - h_lo + 1)

    def demand(self, rid: int) -> int:
        return self._demand.get(rid, 0)

    def region(self, rid: int) -> Region:
        """The full capacity/demand annotation of one tile."""
        row, col = divmod(rid, self.cols)
        v_lo, v_hi, h_lo, h_hi = self.bounds_of(rid)
        return Region(
            row=row,
            col=col,
            v_lo=v_lo,
            v_hi=v_hi,
            h_lo=h_lo,
            h_hi=h_hi,
            capacity=self.capacity(rid),
            demand=self.demand(rid),
        )

    def overflowed_regions(self) -> list[int]:
        """Regions whose projected demand exceeds geometric capacity."""
        return sorted(
            rid for rid in self._demand if self.region(rid).overflowed
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegionModel({self.rows}x{self.cols} regions of "
            f"{REGION_TRACKS} tracks, "
            f"{len(self._demand)} with demand)"
        )
