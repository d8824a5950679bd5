"""The occupancy backend layer: PagedArray, registry, cross-backend parity.

Three layers of guarantees (docs/SCALING.md):

* :class:`PagedArray` implements exactly the indexing subset
  :class:`RoutingGrid` uses, with first-touch allocation — zero writes
  into unallocated pages allocate nothing;
* the ``dense``/``sparse`` backends are observably identical — a
  hypothesis-driven random interleaving of commit/rip-up/rollback
  leaves both with byte-identical snapshots;
* the whole stack stays bit-identical: sparse-routed suites reproduce
  the pre-refactor :data:`test_planes.PARITY_DIGESTS`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench_suite import SUITES
from repro.flow import FlowParams, overcell_flow
from repro.grid import (
    DenseBackend,
    PagedArray,
    RoutingGrid,
    SparseBackend,
    TrackSet,
    available_backends,
    get_backend,
)

from test_planes import PARITY_DIGESTS, _geometry_digest


def make_grid(backend: str, nv: int = 24, nh: int = 20) -> RoutingGrid:
    vt = TrackSet.uniform(0, (nv - 1) * 8, 8)
    ht = TrackSet.uniform(0, (nh - 1) * 8, 8)
    grid = RoutingGrid(vt, ht, backend=backend)
    assert grid.num_vtracks == nv and grid.num_htracks == nh
    return grid


# ----------------------------------------------------------------------
# PagedArray
# ----------------------------------------------------------------------
class TestPagedArray:
    def test_reads_default_to_zero(self):
        arr = PagedArray((4, 100))
        assert arr[2, 57] == 0
        assert not arr[3, 10:90].any()
        assert arr.pages_allocated == 0

    def test_scalar_write_read_roundtrip(self):
        arr = PagedArray((4, 100))
        arr[1, 42] = 7
        assert arr[1, 42] == 7
        assert arr[1, 41] == 0

    def test_negative_indices_wrap(self):
        arr = PagedArray((4, 100))
        arr[-1, -1] = 5
        assert arr[3, 99] == 5

    def test_out_of_range_raises(self):
        arr = PagedArray((4, 100))
        with pytest.raises(IndexError):
            arr[4, 0]
        with pytest.raises(IndexError):
            arr[0, 100] = 1

    def test_zero_writes_allocate_nothing(self):
        arr = PagedArray((4, 100))
        arr[0, 10:90] = 0
        arr[2, 5] = 0
        assert arr.pages_allocated == 0
        assert arr.nbytes_allocated == 0

    def test_first_touch_allocates_only_spanned_pages(self):
        arr = PagedArray((4, 100), page=16)
        arr[0, 20:25] = 3  # one 16-cell page (cells 16..31)
        assert arr.pages_allocated == 1
        arr[0, 30:40] = 3  # page 1 again plus page 2 (cells 32..47)
        assert arr.pages_allocated == 2
        arr[3, 0] = 1  # a different row allocates independently
        assert arr.pages_allocated == 3
        assert arr.nbytes_allocated == 3 * 16 * arr.to_numpy().itemsize

    def test_slice_reads_are_fresh_copies(self):
        arr = PagedArray((4, 100))
        arr[1, 0:10] = 9
        window = arr[1, 0:10]
        window[:] = 0
        assert arr[1, 5] == 9

    def test_column_reads(self):
        arr = PagedArray((4, 100))
        arr[0, 7] = 1
        arr[2, 7] = 3
        col = arr[:, 7]
        assert col.tolist() == [1, 0, 3, 0]

    def test_window_reads(self):
        arr = PagedArray((4, 100))
        arr[1, 10:14] = 2
        win = arr[0:3, 9:13]
        assert win.shape == (3, 4)
        assert win[1].tolist() == [0, 2, 2, 2]

    def test_comparisons_match_numpy(self):
        arr = PagedArray((3, 40))
        arr[0, 0:40] = 4
        dense = arr.to_numpy()
        assert np.array_equal(arr == 4, dense == 4)
        assert np.array_equal(arr != 4, dense != 4)
        assert np.array_equal(arr > 0, dense > 0)

    def test_positive_scans(self):
        arr = PagedArray((3, 40))
        arr[0, 3] = 2
        arr[1, 5] = 2
        arr[2, 7] = -1
        assert arr.count_positive() == 2
        assert arr.positive_values() == {2}

    def test_to_numpy_roundtrip(self):
        arr = PagedArray((3, 40), dtype=np.int16)
        arr[2, 39] = 12
        dense = arr.to_numpy()
        assert dense.dtype == np.int16
        assert dense[2, 39] == 12
        assert dense.sum() == 12


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_backends_registered(self):
        assert available_backends() == ["dense", "sparse"]
        assert get_backend("dense") is DenseBackend
        assert get_backend("sparse") is SparseBackend

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError, match="sparse"):
            get_backend("ramdisk")

    def test_grid_accepts_backend_instance(self):
        vt = TrackSet.uniform(0, 64, 8)
        ht = TrackSet.uniform(0, 64, 8)
        inst = SparseBackend(len(ht), len(vt))
        grid = RoutingGrid(vt, ht, backend=inst)
        assert grid.backend_name == "sparse"
        assert grid.backend is inst

    def test_memory_accounting(self):
        dense = make_grid("dense")
        sparse = make_grid("sparse")
        assert dense.memory_bytes() == dense.dense_equiv_bytes()
        assert sparse.dense_equiv_bytes() == dense.dense_equiv_bytes()
        assert sparse.memory_bytes() == 0  # nothing committed yet
        sparse.occupy_h(3, 2, 9, 1)
        assert 0 < sparse.memory_bytes() < sparse.dense_equiv_bytes()


# ----------------------------------------------------------------------
# Cross-backend behavioural parity (satellite: hypothesis interleaving)
# ----------------------------------------------------------------------
def _snapshot_bytes(grid: RoutingGrid) -> bytes:
    snap = grid.snapshot()
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
    """Replay an op script, swallowing the router-level rejections.

    Conflicting occupations raise ``ValueError`` — both backends must
    raise on exactly the same ops, so the state stays in lockstep.
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


class TestInterleavingParity:
    @settings(max_examples=60, deadline=None)
    @given(_ops)
    def test_random_interleaving_keeps_backends_identical(self, ops):
        dense = make_grid("dense", nv=20, nh=20)
        sparse = make_grid("sparse", nv=20, nh=20)
        _apply_ops(dense, ops)
        _apply_ops(sparse, ops)
        assert _snapshot_bytes(dense) == _snapshot_bytes(sparse)
        assert dense.utilization() == sparse.utilization()
        assert dense.backend.owner_ids() == sparse.backend.owner_ids()

    @settings(max_examples=30, deadline=None)
    @given(_ops)
    def test_sparse_never_exceeds_dense_footprint(self, ops):
        sparse = make_grid("sparse", nv=20, nh=20)
        _apply_ops(sparse, ops)
        assert sparse.memory_bytes() <= sparse.dense_equiv_bytes()


# ----------------------------------------------------------------------
# Whole-stack route-digest parity (acceptance criterion)
# ----------------------------------------------------------------------
class TestSparseRouteParity:
    @pytest.mark.parametrize("suite", sorted(PARITY_DIGESTS))
    def test_sparse_serial_reproduces_seed_digest(self, suite):
        res = overcell_flow(SUITES[suite](), FlowParams(backend="sparse"))
        assert _geometry_digest(res) == PARITY_DIGESTS[suite], (
            f"sparse backend drifted from the dense baseline on {suite}"
        )
