"""A stack of routing grids, one per over-cell reserved-layer plane.

The paper's TIG state is a single two-dimensional occupancy array
because the paper routes on a single metal3/metal4 plane.  A
technology with more reserved pairs
(:attr:`~repro.technology.Technology.num_overcell_planes`) gives the
over-cell area several such planes, and each gets its *own*
:class:`~repro.grid.occupancy.RoutingGrid` — its own ownership arrays,
per-net ledgers, undo journal and snapshots — while all planes share
the same track coordinate sets.

Sharing the tracks is deliberate: the TIG's grid is generated at the
plane-0 (metal3/metal4) pitch plus one track through every terminal
(paper section 3), and upper planes in this model inherit that lattice
rather than re-gridding at their own pitch.  A plane's coarser physical
pitch still matters — it enters the area and delay models through the
:class:`~repro.technology.layers.Layer` objects — but keeping one index
space across planes is what lets a terminal's through-via stack be a
single ``(v_idx, h_idx)`` claim on every plane below its net's plane,
and lets windows, snapshots and congestion maps line up across planes.

``PlaneSet`` is intentionally thin.  Routing code works on one plane's
``RoutingGrid`` at a time (a net never changes plane mid-route); the
set exists to fan aggregate operations — transactions, snapshots,
obstacles — across all planes at once.
"""

from __future__ import annotations

from contextlib import contextmanager
from collections.abc import Iterator

from repro.geometry import Rect
from repro.grid.occupancy import GridSnapshot, GridTransaction, RoutingGrid
from repro.grid.tracks import TrackSet

__all__ = ["PlaneSet", "PlaneSetTransaction"]


class PlaneSetTransaction:
    """One savepoint spanning every plane's undo journal.

    Thin aggregate over per-plane :class:`GridTransaction` objects;
    commit/rollback fan out in a fixed plane order so nested use keeps
    the savepoint discipline on every plane.
    """

    __slots__ = ("_txns", "closed")

    def __init__(self, txns: tuple[GridTransaction, ...]) -> None:
        self._txns = txns
        self.closed = False

    def commit(self) -> None:
        # Innermost-first per plane: these were begun in plane order,
        # so they are each plane's top savepoint and close cleanly.
        for txn in self._txns:
            txn.commit()
        self.closed = True

    def rollback(self) -> int:
        undone = 0
        for txn in self._txns:
            undone += txn.rollback()
        self.closed = True
        return undone


class PlaneSet:
    """N routing grids over shared track coordinate sets.

    Plane 0 is the paper's metal3/metal4 grid; :attr:`grids` is ordered
    lowest plane first.  ``PlaneSet`` with ``num_planes=1`` behaves
    exactly like the single grid it wraps — the single-plane flow never
    pays for the generalization.  ``num_nets`` and ``max_degree`` size
    every plane's arrays (:class:`~repro.grid.occupancy.RoutingGrid`).
    """

    def __init__(
        self,
        vtracks: TrackSet,
        htracks: TrackSet,
        num_planes: int = 1,
        num_nets: int | None = None,
        max_degree: int | None = None,
    ) -> None:
        if num_planes < 1:
            raise ValueError(f"need at least one plane, got {num_planes}")
        self.vtracks = vtracks
        self.htracks = htracks
        self.grids: tuple[RoutingGrid, ...] = tuple(
            RoutingGrid(vtracks, htracks, num_nets, max_degree)
            for _ in range(num_planes)
        )

    def memory_bytes(self) -> int:
        """Bytes held by every plane's occupancy arrays, summed."""
        return sum(g.memory_bytes() for g in self.grids)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.grids)

    def __iter__(self) -> Iterator[RoutingGrid]:
        return iter(self.grids)

    def __getitem__(self, plane: int) -> RoutingGrid:
        if not 0 <= plane < len(self.grids):
            raise IndexError(
                f"plane {plane} out of range [0, {len(self.grids) - 1}]"
            )
        return self.grids[plane]

    @property
    def num_planes(self) -> int:
        return len(self.grids)

    # ------------------------------------------------------------------
    # Aggregate transactional face (mirrors RoutingGrid's)
    # ------------------------------------------------------------------
    def begin(self) -> PlaneSetTransaction:
        """Open one savepoint across every plane."""
        return PlaneSetTransaction(tuple(g.begin() for g in self.grids))

    @contextmanager
    def transaction(self) -> Iterator[PlaneSetTransaction]:
        """Commit on success, roll every plane back on exception."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if not txn.closed:
                txn.rollback()
            raise
        if not txn.closed:
            txn.commit()

    @property
    def in_transaction(self) -> bool:
        return any(g.in_transaction for g in self.grids)

    def snapshot(self) -> tuple[GridSnapshot, ...]:
        """Immutable per-plane copies, lowest plane first."""
        return tuple(g.snapshot() for g in self.grids)

    def matches(self, snaps: tuple[GridSnapshot, ...]) -> bool:
        """Is every plane byte-identical to its snapshot?"""
        if len(snaps) != len(self.grids):
            return False
        return all(g.matches(s) for g, s in zip(self.grids, snaps))

    # ------------------------------------------------------------------
    # Aggregate mutation
    # ------------------------------------------------------------------
    def add_obstacle(
        self, rect: Rect, *, block_h: bool = True, block_v: bool = True
    ) -> int:
        """Block ``rect`` on every plane.

        Obstacles model cells/macros the over-cell area must avoid;
        absent per-plane obstacle input the model is conservative and
        blocks the full stack.  Returns plane 0's newly-blocked count
        (identical on every plane).
        """
        blocked = 0
        for grid in self.grids:
            blocked = grid.add_obstacle(rect, block_h=block_h, block_v=block_v)
        return blocked

    def utilization(self) -> float:
        """Mean slot utilization across planes."""
        return sum(g.utilization() for g in self.grids) / len(self.grids)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlaneSet({len(self.grids)} planes, "
            f"{len(self.vtracks)}x{len(self.htracks)} tracks)"
        )
