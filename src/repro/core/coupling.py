"""Parallel-run (coupling) analysis and the extra cost term.

Paper, section 3.2: *"Additional terms can be included in the cost
function for nets with special constraints, for example, to prevent
parallel routing of sensitive nets."*  This module provides both
halves of that sentence:

* :class:`ParallelRunPenalty` - a
  :class:`~repro.core.cost.PathCostTerm` that charges a
  candidate path for every grid cell where one of its segments runs
  parallel to a *sensitive* net's wiring within a configurable track
  separation;
* :func:`parallel_exposure` - the matching analysis metric: the total
  parallel-adjacent cell count between a net's wiring and a set of
  sensitive nets, used by tests and the coupling ablation.

Only same-direction adjacency counts: a wire crossing a sensitive wire
at right angles couples over a single point and is ignored, exactly as
the paper's capacitive-coupling concern ("wires running parallel, one
on top of the other, over relatively long distances") suggests.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.core.cost import PathCostTerm
from repro.geometry import Point
from repro.grid import RoutingGrid


class ParallelRunPenalty(PathCostTerm):
    """Penalise running parallel and close to protected wiring.

    ``targets`` names the net ids to stay away from; ``None`` means
    *all* foreign wiring, which is the form a sensitive net's own
    connections use (it must keep clear of everyone).  ``exclude`` is
    the routing net's own id (never penalised).  ``weight`` is the cost
    per parallel-adjacent cell; ``separation`` the number of
    neighbouring tracks on each side that count as "close" (1 =
    immediately adjacent tracks only).
    """

    def __init__(
        self,
        targets: Iterable[int] | None,
        weight: float = 20.0,
        separation: int = 1,
        exclude: int = 0,
    ) -> None:
        # A NaN or infinite weight makes every cost NaN or inf: selection picks none.
        if not 0 <= weight < math.inf:
            raise ValueError(
                f"weight must be finite and non-negative, got {weight}"
            )
        if separation < 1:
            raise ValueError("separation must be >= 1")
        self.targets: set[int] | None = (
            None if targets is None else {int(i) for i in targets}
        )
        self.weight = weight
        self.separation = separation
        self.exclude = exclude

    def _hit(self, owner: int) -> bool:
        if owner <= 0 or owner == self.exclude:
            return False
        return self.targets is None or owner in self.targets

    def cost(self, grid, points, corners):
        if self.targets is not None and not self.targets:
            return 0.0
        cells = 0
        for a, b in zip(points, points[1:]):
            if a == b:
                continue
            cells += self._adjacent_cells(grid, a, b)
        return self.weight * float(cells)

    def _adjacent_cells(self, grid: RoutingGrid, a: Point, b: Point) -> int:
        """Parallel-adjacent protected cells along segment ``a``-``b``."""
        count = 0
        if a.y == b.y:  # horizontal segment: neighbouring h-tracks
            h_idx = grid.htracks.index_of(a.y)
            v_rng = grid.vtracks.index_range(min(a.x, b.x), max(a.x, b.x))
            for dh in range(1, self.separation + 1):
                for nb in (h_idx - dh, h_idx + dh):
                    if not 0 <= nb < grid.num_htracks:
                        continue
                    # repro: allow[txn.mutate] cost-fn hot path: per-candidate snapshot() copies would be O(grid) per probe; a read-only row slice of the occupancy array is safe
                    row = grid._h_owner[nb, v_rng.start : v_rng.stop].tolist()
                    count += sum(1 for owner in row if self._hit(owner))
        else:  # vertical segment: neighbouring v-tracks
            v_idx = grid.vtracks.index_of(a.x)
            h_rng = grid.htracks.index_range(min(a.y, b.y), max(a.y, b.y))
            for dv in range(1, self.separation + 1):
                for nb in (v_idx - dv, v_idx + dv):
                    if not 0 <= nb < grid.num_vtracks:
                        continue
                    # repro: allow[txn.mutate] cost-fn hot path: per-candidate snapshot() copies would be O(grid) per probe; a read-only row slice of the occupancy array is safe
                    row = grid._v_owner[nb, h_rng.start : h_rng.stop].tolist()
                    count += sum(1 for owner in row if self._hit(owner))
        return count


def parallel_exposure(
    grid: RoutingGrid, net_id: int, sensitive_ids: Iterable[int], separation: int = 1
) -> int:
    """Total parallel-adjacent cells between a net and sensitive nets.

    Counts, over every grid cell carrying ``net_id``'s wiring in one
    direction, the cells on neighbouring same-direction tracks (within
    ``separation``) owned by any of ``sensitive_ids``.
    """
    import numpy as np

    sens = {int(i) for i in sensitive_ids} - {net_id}
    if not sens:
        return 0
    exposure = 0
    # repro: allow[txn.mutate] whole-grid vectorised scan: reads both owner planes once; snapshot() would copy both arrays just to mask them
    for arr in (grid._h_owner, grid._v_owner):
        mine = arr == net_id
        theirs = np.isin(arr, sorted(sens))
        for d in range(1, separation + 1):
            exposure += int((mine[d:, :] & theirs[:-d, :]).sum())
            exposure += int((mine[:-d, :] & theirs[d:, :]).sum())
    return exposure
