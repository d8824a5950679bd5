"""Pluggable storage backends for the occupancy grid.

The paper stores the TIG state in dense two-dimensional arrays — an
``O(h*v)`` footprint that caps design size long before the machine runs
out of compute.  This module abstracts *where those arrays live* behind
the :class:`OccupancyBackend` protocol, registry-selected by name
exactly like the connection engines (:mod:`repro.core.engine`):

``"dense"`` (:class:`DenseBackend`)
    The historical representation: three contiguous numpy arrays.
    Fastest per access; memory proportional to grid *area*.
``"sparse"`` (:class:`SparseBackend`)
    :class:`PagedArray` stores — per-row dicts of fixed-size column
    chunks, allocated on first touch.  Memory proportional to
    *committed geometry*, so a mostly-empty scale-tier grid costs a
    small fraction of its dense footprint (docs/SCALING.md).

:class:`RoutingGrid` routes every read and write through the backend's
three stores (``h_owner``, ``v_owner``, ``unrouted_terms``), and both
backends expose the same numpy-flavoured indexing over them, so
transactions, ledgers, snapshots and windowed reads behave identically
— the parity is pinned by sha256 route digests on every suite and a
hypothesis interleaving property (tests/test_backend.py).

Backends also account for themselves: :meth:`~OccupancyBackend.
memory_bytes` is the bytes actually allocated, :meth:`~OccupancyBackend.
dense_equiv_bytes` what a dense representation of the same grid would
cost — the pair behind the ``mem.*`` gauges and ``BENCH_scale.json``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "OccupancyBackend",
    "DenseBackend",
    "SparseBackend",
    "PagedArray",
    "available_backends",
    "get_backend",
    "register_backend",
]

#: Cells per :class:`PagedArray` chunk.  Small enough that an isolated
#: touch (a terminal reservation, a short stub) costs tens of bytes,
#: large enough that a typical committed track span (tens of cells)
#: still lands on one or two pages.
PAGE_CELLS = 16


# ----------------------------------------------------------------------
# PagedArray: the sparse 2-D store
# ----------------------------------------------------------------------
class PagedArray:
    """A 2-D integer array stored as per-row chunks, zero until touched.

    Supports the indexing subset the routing stack uses on its
    ownership arrays — scalar cells, row/column slices and rectangular
    windows, with integer and slice keys in either axis — plus the
    numpy protocol (``__array__``, elementwise comparisons) so analysis
    code written against ndarrays keeps working.  Reads of untouched
    cells return zeros without allocating; writes of zeros into
    untouched pages are dropped, so clearing is as cheap as it is on a
    dense array.

    Not a general ndarray: steps other than 1 and fancy indexing are
    rejected, and slice reads return materialised (dense) copies, never
    views — callers mutate through ``__setitem__`` (which is how
    :class:`~repro.grid.occupancy.RoutingGrid` writes in any backend).
    """

    __slots__ = ("shape", "dtype", "_page", "_rows")

    def __init__(
        self,
        shape: tuple[int, int],
        dtype: np.dtype | type = np.int32,
        page: int = PAGE_CELLS,
    ) -> None:
        nrows, ncols = int(shape[0]), int(shape[1])
        if nrows < 0 or ncols < 0:
            raise ValueError(f"bad PagedArray shape {shape!r}")
        if page < 1:
            raise ValueError("page size must be >= 1")
        self.shape = (nrows, ncols)
        self.dtype = np.dtype(dtype)
        self._page = page
        #: row index -> {page index -> chunk ndarray of ``page`` cells}
        self._rows: dict[int, dict[int, np.ndarray]] = {}

    # -- shape / accounting --------------------------------------------
    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nbytes_allocated(self) -> int:
        """Bytes held by materialised pages (dict overhead excluded)."""
        per_page = self._page * self.dtype.itemsize
        return sum(len(pages) * per_page for pages in self._rows.values())

    @property
    def pages_allocated(self) -> int:
        return sum(len(pages) for pages in self._rows.values())

    # -- key normalisation ---------------------------------------------
    def _norm_index(self, idx: int, n: int, axis: str) -> int:
        idx = int(idx)
        if idx < 0:
            idx += n
        if not 0 <= idx < n:
            raise IndexError(f"{axis} index {idx} out of range [0, {n - 1}]")
        return idx

    def _norm_slice(self, sl: slice, n: int) -> tuple[int, int]:
        start, stop, step = sl.indices(n)
        if step != 1:
            raise IndexError("PagedArray supports step-1 slices only")
        return start, max(start, stop)

    def _key(self, key: int | slice | tuple) -> tuple[object, object]:
        if isinstance(key, tuple):
            if len(key) != 2:
                raise IndexError("PagedArray takes at most two indices")
            return key
        return key, slice(None)

    # -- reads ----------------------------------------------------------
    def __getitem__(self, key: int | slice | tuple) -> np.ndarray | int:
        rows, cols = self._key(key)
        nrows, ncols = self.shape
        if isinstance(rows, slice):
            r0, r1 = self._norm_slice(rows, nrows)
            if isinstance(cols, slice):
                c0, c1 = self._norm_slice(cols, ncols)
                out = np.zeros((r1 - r0, c1 - c0), dtype=self.dtype)
                for r in range(r0, r1):
                    self._read_row(r, c0, c1, out[r - r0])
                return out
            c = self._norm_index(cols, ncols, "column")
            out = np.zeros(r1 - r0, dtype=self.dtype)
            page, off = divmod(c, self._page)
            for r in range(r0, r1):
                chunk = self._rows.get(r, {}).get(page)
                if chunk is not None:
                    out[r - r0] = chunk[off]
            return out
        r = self._norm_index(rows, nrows, "row")
        if isinstance(cols, slice):
            c0, c1 = self._norm_slice(cols, ncols)
            out = np.zeros(c1 - c0, dtype=self.dtype)
            self._read_row(r, c0, c1, out)
            return out
        c = self._norm_index(cols, ncols, "column")
        chunk = self._rows.get(r, {}).get(c // self._page)
        if chunk is None:
            return int(0)
        return int(chunk[c % self._page])

    def _read_row(self, r: int, c0: int, c1: int, out: np.ndarray) -> None:
        """Fill ``out`` with columns ``[c0, c1)`` of row ``r``."""
        pages = self._rows.get(r)
        if not pages or c0 >= c1:
            return
        page = self._page
        for p in range(c0 // page, (c1 - 1) // page + 1):
            chunk = pages.get(p)
            if chunk is None:
                continue
            lo = max(c0, p * page)
            hi = min(c1, (p + 1) * page)
            out[lo - c0 : hi - c0] = chunk[lo - p * page : hi - p * page]

    # -- writes ---------------------------------------------------------
    def __setitem__(self, key: int | slice | tuple, value: Any) -> None:
        rows, cols = self._key(key)
        nrows, ncols = self.shape
        if isinstance(rows, slice):
            r0, r1 = self._norm_slice(rows, nrows)
            row_range = range(r0, r1)
        else:
            r = self._norm_index(rows, nrows, "row")
            row_range = range(r, r + 1)
        if isinstance(cols, slice):
            c0, c1 = self._norm_slice(cols, ncols)
        else:
            c = self._norm_index(cols, ncols, "column")
            c0, c1 = c, c + 1
        if c0 >= c1 or len(row_range) == 0:
            return
        value = np.asarray(value, dtype=self.dtype)
        if value.ndim > 2:
            raise ValueError("PagedArray assignment needs <= 2 dimensions")
        if value.ndim == 2:
            if value.shape != (len(row_range), c1 - c0):
                raise ValueError(
                    f"cannot assign shape {value.shape} to window "
                    f"({len(row_range)}, {c1 - c0})"
                )
            for i, r in enumerate(row_range):
                self._write_row(r, c0, c1, value[i])
        else:
            for r in row_range:
                self._write_row(r, c0, c1, value)

    def _write_row(self, r: int, c0: int, c1: int, value: np.ndarray) -> None:
        """Assign ``value`` (scalar or 1-D) to columns ``[c0, c1)``."""
        scalar = value.ndim == 0
        if not scalar and value.shape[0] != c1 - c0:
            raise ValueError(
                f"cannot assign length {value.shape[0]} to span {c1 - c0}"
            )
        pages = self._rows.get(r)
        page = self._page
        for p in range(c0 // page, (c1 - 1) // page + 1):
            lo = max(c0, p * page)
            hi = min(c1, (p + 1) * page)
            seg = value if scalar else value[lo - c0 : hi - c0]
            chunk = pages.get(p) if pages else None
            if chunk is None:
                # First touch: writing zeros into an untouched page is
                # a no-op, which is what keeps memory proportional to
                # committed geometry.
                if not seg.any():
                    continue
                chunk = np.zeros(page, dtype=self.dtype)
                if pages is None:
                    pages = self._rows.setdefault(r, {})
                pages[p] = chunk
            chunk[lo - p * page : hi - p * page] = seg

    # -- numpy interop ---------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        """A dense materialisation (always a fresh array)."""
        out = np.zeros(self.shape, dtype=self.dtype)
        for r, pages in self._rows.items():
            self._read_row(r, 0, self.shape[1], out[r])
        return out

    def __array__(
        self, dtype: Any = None, copy: bool | None = None
    ) -> np.ndarray:
        dense = self.to_numpy()
        return dense if dtype is None else dense.astype(dtype)

    def __eq__(self, other: object) -> np.ndarray:  # type: ignore[override]
        return self.to_numpy() == other

    def __ne__(self, other: object) -> np.ndarray:  # type: ignore[override]
        return self.to_numpy() != other

    __hash__ = None  # type: ignore[assignment]  # array-like, mirrors ndarray

    def __gt__(self, other: object) -> np.ndarray:
        return self.to_numpy() > other

    def __lt__(self, other: object) -> np.ndarray:
        return self.to_numpy() < other

    # -- sparse-aware scans ----------------------------------------------
    def count_positive(self) -> int:
        """Number of cells holding a value > 0 (no densification)."""
        total = 0
        for pages in self._rows.values():
            for chunk in pages.values():
                total += int((chunk > 0).sum())
        return total

    def positive_values(self) -> set[int]:
        """Distinct values > 0 present anywhere (no densification)."""
        values: set[int] = set()
        for pages in self._rows.values():
            for chunk in pages.values():
                values.update(int(v) for v in np.unique(chunk) if v > 0)
        return values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PagedArray({self.shape[0]}x{self.shape[1]} {self.dtype.name}, "
            f"{self.pages_allocated} pages)"
        )


# ----------------------------------------------------------------------
# The backend protocol
# ----------------------------------------------------------------------
class OccupancyBackend:
    """Storage engine behind one :class:`~repro.grid.RoutingGrid`.

    A backend owns the grid's three mutable stores, all supporting the
    numpy indexing subset :class:`PagedArray` documents:

    ``h_owner``
        Horizontal-slot ownership, indexed ``[h_track][v_track]``
        (int32: 0 free, -1 obstacle, >= 1 net id).
    ``v_owner``
        Vertical-slot ownership, indexed ``[v_track][h_track]``.
    ``unrouted_terms``
        The unrouted-terminal density map, indexed like ``h_owner``
        (int16).

    Everything else — transactions, ledgers, journaling, windows — is
    :class:`RoutingGrid` logic layered on these stores, which is what
    keeps the backends behaviourally interchangeable.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    def __init__(self, num_htracks: int, num_vtracks: int) -> None:
        self.num_htracks = num_htracks
        self.num_vtracks = num_vtracks
        self.h_owner = self._make((num_htracks, num_vtracks), np.int32)
        self.v_owner = self._make((num_vtracks, num_htracks), np.int32)
        self.unrouted_terms = self._make((num_htracks, num_vtracks), np.int16)

    def _make(
        self, shape: tuple[int, int], dtype: type[np.generic]
    ) -> object:
        raise NotImplementedError

    # -- accounting ------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes the three stores actually hold right now."""
        raise NotImplementedError

    def dense_equiv_bytes(self) -> int:
        """What dense arrays of this grid's shape would always cost.

        The denominator of the sparse backend's memory win
        (``mem.grid_dense_equiv_bytes`` / ``BENCH_scale.json``).
        """
        cells = self.num_htracks * self.num_vtracks
        return cells * (
            np.dtype(np.int32).itemsize * 2 + np.dtype(np.int16).itemsize
        )

    # -- whole-grid scans ------------------------------------------------
    def used_slots(self) -> int:
        """Cells across both owner stores carrying a net id (> 0)."""
        raise NotImplementedError

    def owner_ids(self) -> set[int]:
        """Distinct net ids present in either owner store."""
        raise NotImplementedError

    def dense_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh dense copies of (h_owner, v_owner, unrouted_terms).

        The substrate of :meth:`RoutingGrid.snapshot`, so snapshots from
        any backend compare byte-for-byte.
        """
        raise NotImplementedError


_REGISTRY: dict[str, type[OccupancyBackend]] = {}


def register_backend(cls: type[OccupancyBackend]) -> type[OccupancyBackend]:
    """Class decorator: add an :class:`OccupancyBackend` to the registry."""
    if not cls.name:
        raise ValueError(f"backend class {cls.__name__} must set a name")
    _REGISTRY[cls.name] = cls
    return cls


def available_backends() -> list[str]:
    """Names resolvable by :func:`get_backend`."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> type[OccupancyBackend]:
    """Resolve a backend class by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown occupancy backend {name!r}; "
            f"available: {available_backends()}"
        ) from None


# ----------------------------------------------------------------------
# Implementations
# ----------------------------------------------------------------------
@register_backend
class DenseBackend(OccupancyBackend):
    """Contiguous numpy arrays — the paper's representation."""

    name = "dense"

    h_owner: np.ndarray
    v_owner: np.ndarray
    unrouted_terms: np.ndarray

    def _make(
        self, shape: tuple[int, int], dtype: type[np.generic]
    ) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def memory_bytes(self) -> int:
        return (
            self.h_owner.nbytes
            + self.v_owner.nbytes
            + self.unrouted_terms.nbytes
        )

    def used_slots(self) -> int:
        return int((self.h_owner > 0).sum()) + int((self.v_owner > 0).sum())

    def owner_ids(self) -> set[int]:
        ids = set(np.unique(self.h_owner)) | set(np.unique(self.v_owner))
        return {int(i) for i in ids if i > 0}

    def dense_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            self.h_owner.copy(),
            self.v_owner.copy(),
            self.unrouted_terms.copy(),
        )


@register_backend
class SparseBackend(OccupancyBackend):
    """Paged track chunks, allocated on first touch.

    Memory is proportional to committed geometry: an untouched region
    of the grid costs nothing until a wire, terminal or obstacle lands
    on it.  Chunk size is :data:`PAGE_CELLS` cells along the fast
    (track) axis.
    """

    name = "sparse"

    h_owner: PagedArray
    v_owner: PagedArray
    unrouted_terms: PagedArray

    def _make(
        self, shape: tuple[int, int], dtype: type[np.generic]
    ) -> PagedArray:
        return PagedArray(shape, dtype)

    def memory_bytes(self) -> int:
        return (
            self.h_owner.nbytes_allocated
            + self.v_owner.nbytes_allocated
            + self.unrouted_terms.nbytes_allocated
        )

    def used_slots(self) -> int:
        return self.h_owner.count_positive() + self.v_owner.count_positive()

    def owner_ids(self) -> set[int]:
        return self.h_owner.positive_values() | self.v_owner.positive_values()

    def dense_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            self.h_owner.to_numpy(),
            self.v_owner.to_numpy(),
            self.unrouted_terms.to_numpy(),
        )
