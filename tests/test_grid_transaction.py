"""Tests for the transactional routing-state layer.

Covers the GridTransaction journal (savepoint nesting, rollback
exactness), ledger-based rip_net, snapshots, random commit/rip/rollback
interleavings, and the O(cells-touched) contract: speculative route/undo
cycles must never scan the full occupancy arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.instrument.names import TXN_COMMITS, TXN_ROLLBACKS, TXN_UNDO_CELLS
from repro.geometry import Rect
from repro.grid import GridSnapshot, GridTransaction, RoutingGrid, FREE
from repro.grid.tracks import TrackSet

from conftest import make_toy_design


def make_grid(nv: int = 12, nh: int = 10) -> RoutingGrid:
    return RoutingGrid(
        TrackSet.uniform(0, 8 * (nv - 1), 8),
        TrackSet.uniform(0, 8 * (nh - 1), 8),
    )


def terminals_at(grid: RoutingGrid, v: int, h: int) -> int:
    """Unrouted terminals at one intersection (a radius-0 window)."""
    return int(grid.window_counts(np.array([v]), np.array([h]), 0)[1][0])


class TestJournalRollback:
    def test_rollback_restores_occupancy_exactly(self):
        grid = make_grid()
        grid.occupy_h(2, 1, 5, 1)  # pre-existing wiring, outside any txn
        before = grid.snapshot()
        txn = grid.begin()
        grid.occupy_h(3, 0, 7, 2)
        grid.occupy_v(4, 1, 6, 2)
        grid.occupy_corner(4, 3, 2)
        undone = txn.rollback()
        assert grid.matches(before)
        assert undone == 8 + 6 + 2

    def test_rollback_restores_terminal_reservations(self):
        grid = make_grid()
        before = grid.snapshot()
        txn = grid.begin()
        grid.reserve_terminal(3, 3, 5)
        assert terminals_at(grid, 3, 3) == 1
        txn.rollback()
        assert grid.matches(before)

    def test_rollback_restores_mark_terminal_routed(self):
        grid = make_grid()
        grid.reserve_terminal(3, 3, 5)
        before = grid.snapshot()
        txn = grid.begin()
        grid.mark_terminal_routed(3, 3)
        assert terminals_at(grid, 3, 3) == 0
        txn.rollback()
        assert grid.matches(before)
        assert terminals_at(grid, 3, 3) == 1

    def test_commit_keeps_mutations(self):
        grid = make_grid()
        with grid.transaction():
            grid.occupy_h(3, 0, 7, 2)
        assert grid.h_slot(0, 3) == 2
        assert not grid.in_transaction

    def test_exception_rolls_back(self):
        grid = make_grid()
        before = grid.snapshot()
        with pytest.raises(RuntimeError, match="boom"), grid.transaction():
            grid.occupy_h(3, 0, 7, 2)
            raise RuntimeError("boom")
        assert grid.matches(before)

    def test_explicit_early_close_honoured(self):
        grid = make_grid()
        before = grid.snapshot()
        with grid.transaction() as txn:
            grid.occupy_h(3, 0, 7, 2)
            txn.rollback()
        assert grid.matches(before)

    def test_rollback_returns_cell_count(self):
        grid = make_grid()
        txn = grid.begin()
        assert isinstance(txn, GridTransaction)
        grid.occupy_h(3, 2, 4, 1)  # 3 cells
        assert txn.rollback() == 3


class TestSavepointNesting:
    def test_inner_rollback_keeps_outer_mutations(self):
        grid = make_grid()
        outer = grid.begin()
        grid.occupy_h(2, 0, 3, 1)
        inner = grid.begin()
        grid.occupy_v(5, 0, 3, 2)
        inner.rollback()
        assert grid.h_slot(0, 2) == 1
        assert grid.v_slot(5, 0) == FREE
        outer.commit()
        assert grid.h_slot(0, 2) == 1

    def test_inner_commit_merges_into_outer(self):
        grid = make_grid()
        before = grid.snapshot()
        outer = grid.begin()
        grid.occupy_h(2, 0, 3, 1)
        with grid.transaction():
            grid.occupy_v(5, 0, 3, 2)
        # The inner commit must not make the vertical span permanent:
        # the outer rollback undoes both.
        outer.rollback()
        assert grid.matches(before)

    def test_closing_outer_first_raises(self):
        grid = make_grid()
        outer = grid.begin()
        grid.begin()
        with pytest.raises(RuntimeError, match="innermost"):
            outer.commit()

    def test_double_close_raises(self):
        grid = make_grid()
        txn = grid.begin()
        txn.commit()
        with pytest.raises(RuntimeError, match="closed"):
            txn.rollback()


class TestRipNet:
    def _wire_net(self, grid, net_id=3):
        grid.reserve_terminal(1, 1, net_id)
        grid.reserve_terminal(6, 4, net_id)
        grid.occupy_h(1, 1, 6, net_id)
        grid.occupy_corner(6, 1, net_id)
        grid.occupy_v(6, 1, 4, net_id)

    def test_rip_net_frees_all_cells(self):
        grid = make_grid()
        self._wire_net(grid)
        freed = grid.rip_net(3)
        assert freed > 0
        assert 3 not in grid.owners()

    def test_rip_net_preserves_other_nets(self):
        grid = make_grid()
        self._wire_net(grid, net_id=3)
        grid.occupy_h(8, 0, 5, 7)
        grid.rip_net(3)
        assert grid.h_slot(0, 8) == 7

    def test_rip_inside_txn_rolls_back_wiring_and_ledger(self):
        grid = make_grid()
        self._wire_net(grid)
        before = grid.snapshot()
        recorded = grid.net_cells_recorded(3)
        txn = grid.begin()
        grid.rip_net(3)
        assert 3 not in grid.owners()
        txn.rollback()
        assert grid.matches(before)
        # The ledger came back too: a second rip frees the same cells.
        assert grid.net_cells_recorded(3) == recorded
        assert grid.rip_net(3) > 0
        assert 3 not in grid.owners()

    def test_rip_then_reroute_then_rollback_is_exact(self):
        grid = make_grid()
        self._wire_net(grid, net_id=3)
        before = grid.snapshot()
        txn = grid.begin()
        grid.rip_net(3)
        grid.occupy_v(2, 0, 8, 3)  # a different realisation
        grid.occupy_h(0, 2, 9, 3)
        txn.rollback()
        assert grid.matches(before)

    def test_rip_net_rejects_reserved_ids(self):
        grid = make_grid()
        with pytest.raises(ValueError):
            grid.rip_net(0)
        with pytest.raises(ValueError):
            grid.rip_net(-1)


def _snapshot_bytes(snap: GridSnapshot) -> bytes:
    return (
        snap.h_owner.tobytes()
        + snap.v_owner.tobytes()
        + snap.unrouted_terms.tobytes()
    )


_ops = st.lists(
    st.tuples(
        st.sampled_from(["occupy_h", "occupy_v", "corner", "rip", "txn"]),
        st.integers(min_value=0, max_value=19),  # track index
        st.integers(min_value=0, max_value=19),  # span lo
        st.integers(min_value=0, max_value=19),  # span hi
        st.integers(min_value=1, max_value=5),  # net id
        st.booleans(),  # txn: commit or rollback
    ),
    min_size=1,
    max_size=40,
)


def _apply_ops(grid: RoutingGrid, ops) -> None:
    """Replay an op script, each op in its own nested transaction.

    Conflicting occupations raise ``ValueError``; the op's transaction
    is rolled back and the script goes on.
    """
    for op, idx, lo, hi, net, commit in ops:
        txn = grid.begin()
        try:
            if op == "occupy_h":
                grid.occupy_h(idx, lo, hi, net)
            elif op == "occupy_v":
                grid.occupy_v(idx, lo, hi, net)
            elif op == "corner":
                grid.occupy_corner(idx, lo, net)
            elif op == "rip":
                grid.rip_net(net)
            elif op == "txn":
                grid.occupy_h(idx, 0, hi, net)
        except ValueError:
            txn.rollback()
            continue
        if op == "txn" and not commit:
            txn.rollback()
        else:
            txn.commit()


def _assert_statistics_match_snapshot(grid: RoutingGrid) -> None:
    snap = grid.snapshot()
    used = int((snap.h_owner > 0).sum()) + int((snap.v_owner > 0).sum())
    assert grid.utilization() == used / (2 * grid.num_intersections)
    ids = set(np.unique(snap.h_owner)) | set(np.unique(snap.v_owner))
    assert grid.owners() == sorted(int(i) for i in ids if i > 0)


class TestRandomInterleaving:
    @settings(max_examples=60, deadline=None)
    @given(_ops)
    def test_random_interleaving_rolls_back_exactly(self, ops):
        grid = make_grid(nv=20, nh=20)
        # Wiring and a terminal from before the script, which its rip
        # ops may tear up inside the outer transaction.
        grid.reserve_terminal(10, 10, 2)
        grid.occupy_v(19, 0, 9, 1)
        start = grid.snapshot()
        outer = grid.begin()
        _apply_ops(grid, ops)
        _assert_statistics_match_snapshot(grid)
        outer.rollback()
        assert _snapshot_bytes(grid.snapshot()) == _snapshot_bytes(start)
        _assert_statistics_match_snapshot(grid)


class TestOCellsContract:
    def test_rip_cost_tracks_net_size_not_grid_size(self):
        """rip_net touches the ledger's cells, not the occupancy arrays.

        On a huge grid a small net's rip and rollback must both report
        work proportional to the handful of cells the net claimed.
        """
        grid = make_grid(600, 600)
        grid.occupy_h(10, 100, 119, 9)  # 20 cells
        grid.occupy_corner(119, 10, 9)
        assert grid.net_cells_recorded(9) == 22
        with instrument.collecting() as col:
            txn = grid.begin()
            freed = grid.rip_net(9)
            undone = txn.rollback()
        assert freed == 21  # 20 span cells + 1 corner slot not in the span
        # Rollback work equals the replayed ledger cells: tiny vs the
        # 600*600 grid.
        assert undone == col.counters[TXN_UNDO_CELLS] == 22
        assert undone < 100

    def test_txn_counters_emitted(self):
        grid = make_grid()
        with instrument.collecting() as col:
            with grid.transaction():
                grid.occupy_h(2, 0, 3, 1)
            txn = grid.begin()
            grid.occupy_v(5, 0, 3, 2)
            txn.rollback()
        assert col.counters[TXN_COMMITS] == 1
        assert col.counters[TXN_ROLLBACKS] == 1
        assert col.counters[TXN_UNDO_CELLS] == 4


class TestSnapshots:
    def test_snapshot_is_immutable(self):
        grid = make_grid()
        snap = grid.snapshot()
        assert isinstance(snap, GridSnapshot)
        with pytest.raises(ValueError):
            snap.h_owner[0, 0] = 5

    def test_snapshot_is_decoupled_from_grid(self):
        grid = make_grid()
        snap = grid.snapshot()
        grid.occupy_h(2, 0, 3, 1)
        assert snap.h_owner[2, 0] == FREE
        assert not grid.matches(snap)

    def test_reserve_terminal_has_no_partial_write_on_conflict(self):
        grid = make_grid()
        grid.occupy_v(3, 0, 5, 7)  # foreign vertical wiring at (3, 3)
        before = grid.snapshot()
        with pytest.raises(ValueError):
            grid.reserve_terminal(3, 3, 2)
        assert grid.matches(before)


class TestRouterRoundTrip:
    """route -> snapshot -> rip/reroute -> rollback, byte-identical."""

    def _routed_router(self):
        from repro.core import LevelBRouter

        design = make_toy_design()
        router = LevelBRouter(
            Rect(0, 0, 256, 256), list(design.nets.values())
        )
        result = router.route()
        assert result.completion_rate == 1.0
        return router, result

    def test_rip_reroute_rollback_byte_identical(self):
        router, result = self._routed_router()
        grid = router.tig.grid
        snap = grid.snapshot()
        target = max(result.routed, key=lambda r: r.wire_length).net
        txn = grid.begin()
        router.unroute(target)
        redone = router._route_net(target)
        assert redone.complete
        txn.rollback()
        # matches() compares every snapshot array byte-for-byte - the
        # public equivalent of comparing the owner grids directly.
        assert grid.matches(snap)

    def test_rolled_back_route_leaves_grid_untouched_then_routes(self):
        from repro.core import LevelBRouter

        design = make_toy_design()
        router = LevelBRouter(
            Rect(0, 0, 256, 256), list(design.nets.values())
        )
        snap = router.tig.planes.snapshot()
        txn = router.tig.planes.begin()
        trial = router.route()
        txn.rollback()
        assert trial.completion_rate == 1.0
        assert router.tig.planes.matches(snap)
        real = router.route()
        assert real.total_wire_length == trial.total_wire_length
        assert real.total_corners == trial.total_corners


class TestJournalStress:
    """Many rip/re-route/commit cycles leave exactly the clean state.

    The iterative driver (``repro.iterate``) rips every net and
    re-routes inside one plane-set transaction, once per pass.  This
    regression pins the journal's byte-exactness over 100 such cycles
    — not just the single round-trip the tests above cover — and that
    each cycle's transactional bookkeeping (``txn.*`` counters,
    undo-cell volume) is identical to the first's: no drift, no
    leaked ledger entries, no creeping undo logs.
    """

    def test_hundred_rip_recommit_cycles_byte_identical(self):
        from repro.core import LevelBRouter

        design = make_toy_design()
        router = LevelBRouter(
            Rect(0, 0, 256, 256), list(design.nets.values())
        )
        result = router.route()
        assert result.completion_rate == 1.0
        grid = router.tig.grid
        clean = grid.snapshot()
        ledger = {
            r.net_id: grid.net_cells_recorded(r.net_id)
            for r in result.routed
        }

        def cycle():
            txn = router.tig.planes.begin()
            for routed in result.routed:
                router.unroute(routed.net)
            rerouted = router.route()
            txn.commit()
            return rerouted

        # One reference cycle, counters captured in isolation.
        with instrument.collecting() as ref:
            reref = cycle()
        assert reref.completion_rate == 1.0
        assert grid.matches(clean)

        with instrument.collecting() as col:
            for _ in range(99):
                cycle()
        # Byte-identical grid and ledger after 100 total cycles...
        assert grid.matches(clean)
        for net_id, cells in ledger.items():
            assert grid.net_cells_recorded(net_id) == cells
        # ...and each cycle cost exactly what the first one did.
        for name, value in ref.counters.items():
            if name.startswith("txn."):
                assert col.counters.get(name, 0) == 99 * value, name
