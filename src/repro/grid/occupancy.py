"""The two-dimensional occupancy array behind the Track Intersection Graph.

The paper stores the TIG state "in a two-dimensional array which is
updated after the completion of each two-terminal connection", an
``O(t)`` operation per segment (section 3.4).  This module is that
array, plus the **transactional state layer** the routing stack builds
on: every mutation is recorded in a per-net ledger (so rip-up is
``O(cells the net touches)``, never a full-array scan) and, while a
:class:`GridTransaction` is open, in an undo journal (so a connection
commit, or a whole pass of the negotiated-congestion loop, rolls back
in time proportional to the cells it touched).

Model
-----
Under the reserved-layer model the two over-cell layers split by
direction (metal4 horizontal, metal3 vertical), so each track
intersection has **two independent ownership slots**:

* ``h`` - a horizontal wire passing through the intersection,
* ``v`` - a vertical wire passing through it.

Wires of *different* nets may cross at an intersection (different
layers), but may not share a track span.  A **corner** (m3-m4 via)
occupies both slots, as does a terminal's via stack.  Obstacles may
block one direction (e.g. pre-existing m4 power straps inside a macro)
or both (sensitive circuitry excluded by the user).

Slot encoding: ``0`` free, ``-1`` obstacle, ``>= 1`` net id, stored in
the narrowest signed integer type that holds the grid's largest net id
(:func:`narrowest_int`).

Transactions
------------
::

    txn = grid.begin()
    grid.rip_net(net_id)
    ... reroute ...
    txn.rollback()          # or txn.commit()

or, context-managed (commit on success, rollback on exception)::

    with grid.transaction():
        grid.commit_path(net_id, points, corners)

Transactions nest as savepoints: an inner ``commit`` merges its journal
entries into the enclosing transaction, an inner ``rollback`` undoes
only the entries recorded since the inner ``begin``.  Journal entries
are recorded only while at least one transaction is open, so the
untransacted fast path pays a single truthiness test per mutation.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro import instrument
from repro.instrument.names import (
    OCC_CELLS_TOUCHED,
    TXN_COMMITS,
    TXN_ROLLBACKS,
    TXN_UNDO_CELLS,
)
from repro.geometry import Interval, Rect
from repro.grid.tracks import TrackSet

FREE: int = 0
OBSTACLE: int = -1

# A net's ledger is one flat ``array`` of 4-int records, in commit
# order: (0, h_idx, v_lo, v_hi) for a horizontal span, (1, v_idx, h_lo,
# h_hi) for a vertical span, (2, v_idx, h_idx, 0) for a both-slot claim
# (corner via or terminal stack).  ``ledger_entries`` names the tags.
_LEDGER_H = 0
_LEDGER_V = 1
_LEDGER_C = 2
_LEDGER_TAGS = ("h", "v", "c")


@dataclass(frozen=True)
class GridSnapshot:
    """An immutable copy of the grid's full mutable state.

    Used for exactness checks around transactional routing: capture one
    before a rip/reroute cycle or an iterate pass and compare with
    :meth:`RoutingGrid.matches` after rollback.  Arrays are read-only
    copies.
    """

    h_owner: np.ndarray
    v_owner: np.ndarray
    unrouted_terms: np.ndarray


class GridTransaction:
    """A savepoint over the grid's undo journal.

    Obtained from :meth:`RoutingGrid.begin` (or the
    :meth:`RoutingGrid.transaction` context manager).  Exactly one of
    :meth:`commit` / :meth:`rollback` must be called, innermost
    transaction first; the grid enforces the nesting discipline.
    """

    __slots__ = ("_grid", "_savepoint", "closed")

    def __init__(self, grid: "RoutingGrid", savepoint: int) -> None:
        self._grid = grid
        self._savepoint = savepoint
        self.closed = False

    def commit(self) -> None:
        """Keep every mutation recorded since ``begin``."""
        self._grid._commit_txn(self)

    def rollback(self) -> int:
        """Undo every mutation recorded since ``begin``.

        Returns the number of array cells restored (the ``txn.undo_cells``
        measure) - proportional to the cells the transaction touched,
        never to the grid size.
        """
        return self._grid._rollback_txn(self)


class RoutingGrid:
    """Track sets plus occupancy state for one routing layer pair.

    Horizontal scans are row slices of ``_h_owner`` (indexed
    ``[h_track][v_track]``) and vertical scans are row slices of
    ``_v_owner`` (indexed ``[v_track][h_track]``), so both are cache
    friendly and vectorisable with numpy.

    All mutation goes through :meth:`occupy_h` / :meth:`occupy_v` /
    :meth:`occupy_corner` / :meth:`reserve_terminal` /
    :meth:`mark_terminal_routed` (or :meth:`commit_path`, which batches
    them), which is what lets the per-net ledger and the transaction
    journal stay exact.

    ``num_nets`` (the largest net id) and ``max_degree`` (the most
    terminals of one net) size the arrays: the owners and the
    unrouted-terminal map each take the narrowest signed type that holds
    their values (:func:`narrowest_int`), int32 and int16 without them.
    A net id or a terminal count the type cannot hold is rejected.
    """

    def __init__(
        self,
        vtracks: TrackSet,
        htracks: TrackSet,
        num_nets: int | None = None,
        max_degree: int | None = None,
    ) -> None:
        self.vtracks = vtracks
        self.htracks = htracks
        nv, nh = len(vtracks), len(htracks)
        owner = np.dtype(np.int32) if num_nets is None else narrowest_int(num_nets)
        #: Largest net id the owner arrays can hold.
        self.max_net_id = int(np.iinfo(owner).max)
        self._h_owner = np.zeros((nh, nv), dtype=owner)
        self._v_owner = np.zeros((nv, nh), dtype=owner)
        # Unrouted-terminal density map, read by the cost function's
        # ``dup`` term. Indexed [h][v] like _h_owner.  Only one net's
        # terminals share an intersection, so no count exceeds the
        # largest net degree.
        terms = np.dtype(np.int16) if max_degree is None else narrowest_int(max_degree)
        self._max_terms = int(np.iinfo(terms).max)
        self._unrouted_terms = np.zeros((nh, nv), dtype=terms)
        # Per-net mutation ledger: every span/cell a net claimed, in
        # commit order.  Rip-up replays it instead of scanning arrays.
        # Records hold tags and track indices, so they take the
        # narrowest signed type that holds the larger track count.
        self._net_ledger: dict[int, array] = {}
        self._ledger_type = narrowest_int(max(nv, nh)).char
        # Per-net track footprints (span, guard) for wide net classes.
        # Only nets wider than the default single-track claim appear
        # here, so `.get(net_id)` returning None IS the fast path.
        self._footprints: dict[int, tuple[int, int]] = {}
        # Pin keep-outs (add_keepout), indexed per v-track as
        # {v_idx: {h_idx: pin's net id}}; empty on grids without
        # pinched terminals, which keeps the availability fast path.
        self._keepouts_v: dict[int, dict[int, int]] = {}
        # Undo journal + open-transaction stack (savepoint semantics).
        self._journal: list[tuple] = []
        self._txns: list[GridTransaction] = []

    # ------------------------------------------------------------------
    # Basic shape / coordinate helpers
    # ------------------------------------------------------------------
    @property
    def num_vtracks(self) -> int:
        return len(self.vtracks)

    @property
    def num_htracks(self) -> int:
        return len(self.htracks)

    @property
    def num_intersections(self) -> int:
        return self.num_vtracks * self.num_htracks

    def memory_bytes(self) -> int:
        """Bytes held by the three occupancy arrays."""
        return (
            self._h_owner.nbytes
            + self._v_owner.nbytes
            + self._unrouted_terms.nbytes
        )

    def _check_indices(self, v_idx: int, h_idx: int) -> None:
        """Reject out-of-range (notably negative) track indices.

        Both the ``TrackSet`` coordinate lists and the numpy ownership
        arrays accept negative indices via Python wrap-around, which
        silently turns an upstream off-by-one into a claim on the far
        edge of the grid.  Index-taking accessors call this instead.
        """
        if not 0 <= v_idx < self.num_vtracks:
            raise IndexError(
                f"v-track index {v_idx} out of range [0, {self.num_vtracks - 1}]"
            )
        if not 0 <= h_idx < self.num_htracks:
            raise IndexError(
                f"h-track index {h_idx} out of range [0, {self.num_htracks - 1}]"
            )

    def _check_net_id(self, net_id: int) -> None:
        """Reject a net id the owner arrays cannot store.

        Ids start at 1 (0 is ``FREE``, -1 ``OBSTACLE``) and end at
        :attr:`max_net_id`, the owner dtype's largest value.
        """
        if not 1 <= net_id <= self.max_net_id:
            raise ValueError(
                f"net ids must be in [1, {self.max_net_id}], got {net_id}"
            )

    def coord_of(self, v_idx: int, h_idx: int) -> tuple[int, int]:
        """Geometric ``(x, y)`` of intersection ``(v_idx, h_idx)``."""
        self._check_indices(v_idx, h_idx)
        return self.vtracks[v_idx], self.htracks[h_idx]

    # ------------------------------------------------------------------
    # Per-net track footprints (width classes)
    # ------------------------------------------------------------------
    def set_net_footprint(self, net_id: int, span: int, guard: int = 0) -> None:
        """Declare that ``net_id`` claims a multi-track footprint.

        A wide net's wire covers ``span`` adjacent tracks (its base
        track plus ``span - 1`` above/right of it) and additionally
        keeps ``guard`` same-direction tracks clear on *each* side, per
        the technology's width-dependent spacing tables
        (:meth:`~repro.technology.Technology.net_footprint`).  Every
        occupy primitive and availability query on this grid expands
        the net's claims accordingly; the expansion clamps at grid
        edges, where the routing region itself bounds the wiring.

        ``(1, 0)`` is the historical single-track behaviour and is not
        stored, so grids carrying only signal nets run the exact
        pre-footprint code paths.
        """
        if span < 1 or guard < 0:
            raise ValueError("footprint needs span >= 1 and guard >= 0")
        self._check_net_id(net_id)
        if span == 1 and guard == 0:
            self._footprints.pop(net_id, None)
        else:
            self._footprints[net_id] = (span, guard)

    def footprint_of(self, net_id: int) -> tuple[int, int]:
        """The ``(span, guard)`` footprint of ``net_id`` (default ``(1, 0)``)."""
        return self._footprints.get(net_id, (1, 0))

    @staticmethod
    def _expand_rows(base: int, fp: tuple[int, int], n: int) -> range:
        """Track rows a footprinted claim at ``base`` touches, clamped."""
        span, guard = fp
        return range(max(0, base - guard), min(n - 1, base + span - 1 + guard) + 1)

    def add_keepout(self, v_idx: int, h_idx: int, net_id: int) -> None:
        """Bar every net but ``net_id`` from wiring through an intersection.

        Marks a *pinched* terminal of ``net_id`` (docs/TECHNOLOGY.md):
        the router never connects it, but the pin's via stack still
        stands there, so no other net may run wire through the point or
        place a corner on it.  Occupancy state is untouched — the cost
        model reads the grid exactly as before — and only the
        availability reads (:meth:`window_masks` and :meth:`corner_free`)
        exclude the point.
        """
        self._check_indices(v_idx, h_idx)
        self._keepouts_v.setdefault(v_idx, {})[h_idx] = net_id

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> GridTransaction:
        """Open a transaction (savepoint) over the undo journal."""
        txn = GridTransaction(self, len(self._journal))
        self._txns.append(txn)
        return txn

    @contextmanager
    def transaction(self) -> Iterator[GridTransaction]:
        """Context-managed transaction: commit on success, rollback on
        exception.  An explicit early ``commit()``/``rollback()`` inside
        the block is honoured."""
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
        return bool(self._txns)

    @property
    def journal_len(self) -> int:
        """Undo-journal entries currently recorded.

        Entries exist only while a transaction is open (the outermost
        commit clears the journal, rollbacks pop their own entries), so
        a nonzero value with :attr:`in_transaction` false indicates a
        balance bug.  Exposed for the ``grid.journal`` audit rule in
        :mod:`repro.check`.
        """
        return len(self._journal)

    def _require_top(self, txn: GridTransaction) -> None:
        if txn.closed:
            raise RuntimeError("transaction already closed")
        if not self._txns or self._txns[-1] is not txn:
            raise RuntimeError(
                "transactions must close innermost-first (savepoint nesting)"
            )

    def _commit_txn(self, txn: GridTransaction) -> None:
        self._require_top(txn)
        self._txns.pop()
        txn.closed = True
        if not self._txns:
            # Outermost commit: the journal is no longer reachable.
            self._journal.clear()
        inst = instrument.active()
        if inst.enabled:
            inst.count(TXN_COMMITS)

    def _rollback_txn(self, txn: GridTransaction) -> int:
        self._require_top(txn)
        self._txns.pop()
        txn.closed = True
        undone = 0
        H, V = self._h_owner, self._v_owner
        while len(self._journal) > txn._savepoint:
            rec = self._journal.pop()
            tag = rec[0]
            if tag == "h":
                _, net_id, h_idx, v_lo, prior = rec
                H[h_idx, v_lo : v_lo + len(prior)] = prior
                undone += len(prior)
                self._ledger_pop(net_id)
            elif tag == "v":
                _, net_id, v_idx, h_lo, prior = rec
                V[v_idx, h_lo : h_lo + len(prior)] = prior
                undone += len(prior)
                self._ledger_pop(net_id)
            elif tag == "c":
                _, net_id, v_idx, h_idx, prior_h, prior_v, reserved = rec
                H[h_idx, v_idx] = prior_h
                V[v_idx, h_idx] = prior_v
                if reserved:
                    self._unrouted_terms[h_idx, v_idx] -= 1
                undone += 2
                self._ledger_pop(net_id)
            elif tag == "m":
                _, v_idx, h_idx = rec
                self._unrouted_terms[h_idx, v_idx] += 1
                undone += 1
            else:  # "rip": restore the net's wiring and its ledger
                _, net_id, ledger = rec
                undone += self._replay_ledger(net_id, ledger)
                self._net_ledger[net_id] = ledger
        inst = instrument.active()
        if inst.enabled:
            inst.count(TXN_ROLLBACKS)
            inst.count(TXN_UNDO_CELLS, undone)
        return undone

    def _ledger_pop(self, net_id: int) -> None:
        if net_id >= 1:
            del self._net_ledger[net_id][-4:]

    def _ledger_push(self, net_id: int, tag: int, a: int, b: int, c: int = 0) -> None:
        if net_id >= 1:
            ledger = self._net_ledger.get(net_id)
            if ledger is None:
                ledger = self._net_ledger[net_id] = array(self._ledger_type)
            ledger.extend((tag, a, b, c))

    def _replay_ledger(self, net_id: int, ledger: array) -> int:
        """Re-claim every ledger cell for ``net_id`` (rip-up undo)."""
        H, V = self._h_owner, self._v_owner
        cells = 0
        for tag, a, b, c in _records(ledger):
            if tag == _LEDGER_H:
                H[a, b : c + 1] = net_id
                cells += c - b + 1
            elif tag == _LEDGER_V:
                V[a, b : c + 1] = net_id
                cells += c - b + 1
            else:
                H[b, a] = net_id
                V[a, b] = net_id
                cells += 2
        return cells

    # ------------------------------------------------------------------
    # Snapshots (cheap immutable copies for exactness checks)
    # ------------------------------------------------------------------
    def snapshot(self) -> GridSnapshot:
        """An immutable copy of the full mutable state."""
        arrays = (
            self._h_owner.copy(),
            self._v_owner.copy(),
            self._unrouted_terms.copy(),
        )
        for arr in arrays:
            arr.setflags(write=False)
        return GridSnapshot(*arrays)

    def matches(self, snap: GridSnapshot) -> bool:
        """Is the grid byte-identical to ``snap``?"""
        return bool(
            np.array_equal(self._h_owner, snap.h_owner)
            and np.array_equal(self._v_owner, snap.v_owner)
            and np.array_equal(self._unrouted_terms, snap.unrouted_terms)
        )

    # ------------------------------------------------------------------
    # Obstacles and terminals
    # ------------------------------------------------------------------
    def add_obstacle(
        self, rect: Rect, *, block_h: bool = True, block_v: bool = True
    ) -> int:
        """Block every intersection inside ``rect`` (coordinate space).

        Returns the number of intersections newly blocked.  Blocking a
        cell already owned by a net raises: obstacles must be declared
        before routing starts (which is also what keeps the per-net
        ledger's cells exclusively net-owned).
        """
        vr = self.vtracks.index_range(rect.x1, rect.x2)
        hr = self.htracks.index_range(rect.y1, rect.y2)
        if len(vr) == 0 or len(hr) == 0:
            return 0
        blocked = 0
        hs = slice(hr.start, hr.stop)
        vs = slice(vr.start, vr.stop)
        h_block = self._h_owner[hs, vs]
        v_block = self._v_owner[vs, hs]
        if block_h:
            if (h_block > 0).any():
                raise ValueError("obstacle overlaps routed wiring (h)")
            blocked += int((h_block != OBSTACLE).sum())
            self._h_owner[hs, vs] = OBSTACLE
        if block_v:
            if (v_block > 0).any():
                raise ValueError("obstacle overlaps routed wiring (v)")
            if not block_h:
                blocked += int((v_block != OBSTACLE).sum())
            self._v_owner[vs, hs] = OBSTACLE
        return blocked

    def reserve_terminal(self, v_idx: int, h_idx: int, net_id: int) -> None:
        """Claim an intersection for a net's terminal via stack.

        Terminal connections from level B nets down to m1/m2 happen
        only at terminal locations (paper section 2), so the stack
        blocks both directions for every other net from the outset.
        """
        self._check_net_id(net_id)
        self._check_indices(v_idx, h_idx)
        prior_h = int(self._h_owner[h_idx, v_idx])
        prior_v = int(self._v_owner[v_idx, h_idx])
        for current in (prior_h, prior_v):
            if current not in (FREE, net_id):
                raise ValueError(
                    f"terminal at ({v_idx},{h_idx}) collides with owner {current}"
                )
        if self._unrouted_terms[h_idx, v_idx] == self._max_terms:
            raise ValueError(
                f"more than {self._max_terms} terminals at ({v_idx},{h_idx})"
            )
        fp = self._footprints.get(net_id)
        extra: list[tuple[int, int]] = []
        if fp is not None:
            # A wide terminal's anchor covers the footprint block —
            # best-effort: terminal pins sit at fixed physical
            # positions the width model cannot move, so cells already
            # held by another net's stack are simply skipped.  Wire
            # claims reaching the terminal still pre-check the full
            # footprint, so the router routes around (or fails) such
            # pinched terminals instead of shorting.
            for v in self._expand_rows(v_idx, fp, self.num_vtracks):
                for h in self._expand_rows(h_idx, fp, self.num_htracks):
                    if (v, h) == (v_idx, h_idx):
                        continue
                    if self._h_owner[h, v] not in (FREE, net_id) or (
                        self._v_owner[v, h] not in (FREE, net_id)
                    ):
                        continue
                    extra.append((v, h))
        if self._txns:
            self._journal.append(
                ("c", net_id, v_idx, h_idx, prior_h, prior_v, True)
            )
        self._h_owner[h_idx, v_idx] = net_id
        self._v_owner[v_idx, h_idx] = net_id
        self._unrouted_terms[h_idx, v_idx] += 1
        self._ledger_push(net_id, _LEDGER_C, v_idx, h_idx)
        for v, h in extra:
            if self._txns:
                self._journal.append(
                    (
                        "c", net_id, v, h,
                        int(self._h_owner[h, v]), int(self._v_owner[v, h]),
                        False,
                    )
                )
            self._h_owner[h, v] = net_id
            self._v_owner[v, h] = net_id
            self._ledger_push(net_id, _LEDGER_C, v, h)

    def mark_terminal_routed(self, v_idx: int, h_idx: int) -> None:
        """Drop one unrouted-terminal mark at an intersection."""
        self._check_indices(v_idx, h_idx)
        if self._unrouted_terms[h_idx, v_idx] > 0:
            if self._txns:
                self._journal.append(("m", v_idx, h_idx))
            self._unrouted_terms[h_idx, v_idx] -= 1

    # ------------------------------------------------------------------
    # Availability queries
    # ------------------------------------------------------------------
    def corner_free(self, v_idx: int, h_idx: int, net_id: int) -> bool:
        """Can ``net_id`` place a corner/via at this intersection?"""
        self._check_indices(v_idx, h_idx)
        keepouts = self._keepouts_v
        if keepouts and keepouts.get(v_idx, {}).get(h_idx, net_id) != net_id:
            return False
        if net_id in self._footprints:
            # A wide net's corner block: window_masks over the 1x1 window.
            point_v, point_h = Interval(v_idx, v_idx), Interval(h_idx, h_idx)
            return bool(self.window_masks(net_id, point_v, point_h)[2][0, 0])
        h = self._h_owner[h_idx, v_idx]
        v = self._v_owner[v_idx, h_idx]
        return h in (FREE, net_id) and v in (FREE, net_id)

    def h_slot(self, v_idx: int, h_idx: int) -> int:
        self._check_indices(v_idx, h_idx)
        return int(self._h_owner[h_idx, v_idx])

    def v_slot(self, v_idx: int, h_idx: int) -> int:
        self._check_indices(v_idx, h_idx)
        return int(self._v_owner[v_idx, h_idx])

    def window_masks(
        self, net_id: int, v_iv: Interval, h_iv: Interval
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(usable_h, usable_v, corner)`` boolean arrays of a net over a window.

        The one availability read of every search: the MBFS, the Lee
        wave and the reachability flood.  The window is the index
        intervals ``v_iv`` x ``h_iv``.  ``usable_h`` is indexed
        ``[h, v]``, ``usable_v`` ``[v, h]`` and ``corner`` ``[h, v]``,
        all relative to the window's low corner.  A ``usable_h`` cell is
        set when the net may run horizontal wire through the
        intersection: its h slot is free or the net's own on every
        footprint row (:meth:`_expand_rows`, clamped at the grid edge).
        ``usable_v`` is the same for vertical wire.  A ``corner`` cell is
        set when the net may place a corner via there, exactly where
        :meth:`corner_free` holds: both slots free or its own over the
        footprint block around the point.  Every other net's pin
        keep-out (:meth:`add_keepout`) clears its exact point in all
        three arrays.  A wide net reads the window plus its footprint's
        reach (clamped at the grid edge): its footprint rows and corner
        blocks are clamped-window ANDs, taken with cumulative sums
        instead of per-cell block checks.
        """
        if not (
            0 <= v_iv.lo <= v_iv.hi < self.num_vtracks
            and 0 <= h_iv.lo <= h_iv.hi < self.num_htracks
        ):
            raise IndexError(f"window {v_iv} x {h_iv} out of range")
        fp = self._footprints.get(net_id)
        below, above = (0, 0) if fp is None else (fp[1], fp[0] - 1 + fp[1])
        v0 = max(0, v_iv.lo - below)
        v1 = min(self.num_vtracks - 1, v_iv.hi + above)
        h0 = max(0, h_iv.lo - below)
        h1 = min(self.num_htracks - 1, h_iv.hi + above)
        usable_h = _usable(self._h_owner[h0 : h1 + 1, v0 : v1 + 1], net_id)
        usable_v = _usable(self._v_owner[v0 : v1 + 1, h0 : h1 + 1], net_id)
        both = usable_h & usable_v.T
        if fp is None:
            corner = both
        else:
            # Reach rows clamp exactly as the grid edge does, so each
            # window cell's block lies inside the slice read.
            hs = slice(h_iv.lo - h0, h_iv.hi - h0 + 1)
            vs = slice(v_iv.lo - v0, v_iv.hi - v0 + 1)
            usable_h = _window_all(usable_h, fp, axis=0)[hs, vs]
            usable_v = _window_all(usable_v, fp, axis=0)[vs, hs]
            corner = _window_all(_window_all(both, fp, axis=0), fp, axis=1)[hs, vs]
        for v_idx, row in self._keepouts_v.items():
            if not v_iv.lo <= v_idx <= v_iv.hi:
                continue
            for h_idx, owner in row.items():
                if owner != net_id and h_iv.lo <= h_idx <= h_iv.hi:
                    v, h = v_idx - v_iv.lo, h_idx - h_iv.lo
                    usable_h[h, v] = False
                    usable_v[v, h] = False
                    corner[h, v] = False
        return usable_h, usable_v, corner

    def net_masks(self, net_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whole-grid :meth:`window_masks` of a net."""
        return self.window_masks(
            net_id,
            Interval(0, self.num_vtracks - 1),
            Interval(0, self.num_htracks - 1),
        )

    def reachable(
        self, net_id: int, source: tuple[int, int], target: tuple[int, int]
    ) -> bool:
        """Can ``net_id`` wire ``source`` to ``target`` anywhere on the grid?

        Both points are ``(v_idx, h_idx)``.  A flood of the Lee wave's
        move relation over :meth:`net_masks`: a state is a cell plus a
        direction, wire slides along a usable run and turns at a corner
        cell.  Every cell of a run is reachable once one is, so the flood
        works on runs: it marks the runs through the source, then joins
        the horizontal and the vertical run through each corner cell
        that touches a marked run, until the target's run is marked or
        nothing changes.  The answer equals whether a whole-grid Lee
        search finds a path, at numpy speed and without a heap.
        """
        (sv, sh), (tv, th) = source, target
        self._check_indices(sv, sh)
        self._check_indices(tv, th)
        usable_h, usable_v, corner = self.net_masks(net_id)
        runs_h, runs_v = _run_labels(usable_h), _run_labels(usable_v)
        # Label 0 marks unusable cells; it never gets marked reached.
        reached_h = np.zeros(int(runs_h.max()) + 1, dtype=bool)
        reached_v = np.zeros(int(runs_v.max()) + 1, dtype=bool)
        reached_h[runs_h[sh, sv]] = usable_h[sh, sv]
        reached_v[runs_v[sv, sh]] = usable_v[sv, sh]
        goal_h, goal_v = runs_h[th, tv], runs_v[tv, th]
        # Each corner cell joins the h-run and the v-run through it.
        hs, vs = np.nonzero(corner)
        join_h, join_v = runs_h[hs, vs], runs_v[vs, hs]
        while not (reached_h[goal_h] or reached_v[goal_v]):
            hit = reached_h[join_h] | reached_v[join_v]
            grow_h, grow_v = join_h[hit], join_v[hit]
            if reached_h[grow_h].all() and reached_v[grow_v].all():
                return False
            reached_h[grow_h] = True
            reached_v[grow_v] = True
        return True

    # ------------------------------------------------------------------
    # Mutation (the O(t)-per-segment update of section 3.4)
    # ------------------------------------------------------------------
    def occupy_h(self, h_idx: int, v_lo: int, v_hi: int, net_id: int) -> None:
        """Claim the horizontal slots of a span for ``net_id``.

        A net with a declared footprint claims every expanded row
        (metal span plus guards) — each row gets its own journal and
        ledger entry, so rollback and rip-up replay work unchanged.
        """
        if v_lo > v_hi:
            v_lo, v_hi = v_hi, v_lo
        fp = self._footprints.get(net_id)
        if fp is None:
            rows: Sequence[int] = (h_idx,)
        else:
            rows = self._expand_rows(h_idx, fp, self.num_htracks)
        priors = []
        for r in rows:
            row = self._h_owner[r, v_lo : v_hi + 1]
            foreign = (row != FREE) & (row != net_id)
            if foreign.any():
                raise ValueError(
                    f"h-track {r} span [{v_lo},{v_hi}] not free for net {net_id}"
                )
            priors.append(row)
        for r, row in zip(rows, priors):
            if self._txns:
                self._journal.append(("h", net_id, r, v_lo, row.copy()))
            self._h_owner[r, v_lo : v_hi + 1] = net_id
            self._ledger_push(net_id, _LEDGER_H, r, v_lo, v_hi)

    def occupy_v(self, v_idx: int, h_lo: int, h_hi: int, net_id: int) -> None:
        """Claim the vertical slots of a span for ``net_id``."""
        if h_lo > h_hi:
            h_lo, h_hi = h_hi, h_lo
        fp = self._footprints.get(net_id)
        if fp is None:
            rows: Sequence[int] = (v_idx,)
        else:
            rows = self._expand_rows(v_idx, fp, self.num_vtracks)
        priors = []
        for r in rows:
            row = self._v_owner[r, h_lo : h_hi + 1]
            foreign = (row != FREE) & (row != net_id)
            if foreign.any():
                raise ValueError(
                    f"v-track {r} span [{h_lo},{h_hi}] not free for net {net_id}"
                )
            priors.append(row)
        for r, row in zip(rows, priors):
            if self._txns:
                self._journal.append(("v", net_id, r, h_lo, row.copy()))
            self._v_owner[r, h_lo : h_hi + 1] = net_id
            self._ledger_push(net_id, _LEDGER_V, r, h_lo, h_hi)

    def occupy_corner(self, v_idx: int, h_idx: int, net_id: int) -> None:
        """Claim both slots at an intersection (an m3-m4 via).

        A footprinted net's corner via pad covers the whole expanded
        block (span plus guard ring on both axes); every cell is
        claimed with its own journal/ledger entry.
        """
        if not self.corner_free(v_idx, h_idx, net_id):
            raise ValueError(f"corner ({v_idx},{h_idx}) not free for net {net_id}")
        fp = self._footprints.get(net_id)
        if fp is None:
            cells = ((v_idx, h_idx),)
        else:
            cells = tuple(
                (v, h)
                for v in self._expand_rows(v_idx, fp, self.num_vtracks)
                for h in self._expand_rows(h_idx, fp, self.num_htracks)
            )
        for v, h in cells:
            if self._txns:
                self._journal.append(
                    (
                        "c",
                        net_id,
                        v,
                        h,
                        int(self._h_owner[h, v]),
                        int(self._v_owner[v, h]),
                        False,
                    )
                )
            self._h_owner[h, v] = net_id
            self._v_owner[v, h] = net_id
            self._ledger_push(net_id, _LEDGER_C, v, h)

    def commit_path(
        self,
        net_id: int,
        points: Sequence,
        corners: Iterable[tuple[int, int]],
    ) -> int:
        """Claim a path (waypoint sequence plus corner vias) for ``net_id``.

        The shared commit primitive behind every connection engine, so
        all of them mutate the occupancy array identically.  Waypoint
        coordinates must lie on tracks; consecutive points must be
        axis-aligned.  Returns the number of slots claimed.
        """
        cells = 0
        for a, b in zip(points, points[1:]):
            if a == b:
                continue
            if a.y == b.y:
                h_idx = self.htracks.index_of(a.y)
                idxs = self.vtracks.index_range(min(a.x, b.x), max(a.x, b.x))
                self.occupy_h(h_idx, idxs.start, idxs.stop - 1, net_id)
            else:
                v_idx = self.vtracks.index_of(a.x)
                idxs = self.htracks.index_range(min(a.y, b.y), max(a.y, b.y))
                self.occupy_v(v_idx, idxs.start, idxs.stop - 1, net_id)
            cells += idxs.stop - idxs.start
        for v_idx, h_idx in corners:
            self.occupy_corner(v_idx, h_idx, net_id)
            cells += 1
        instrument.count(OCC_CELLS_TOUCHED, cells)
        return cells

    def rip_net(self, net_id: int) -> int:
        """Remove every slot owned by ``net_id`` (rip-up).

        Replays the net's mutation ledger, so the cost is
        ``O(cells the net touches)`` - the occupancy arrays are never
        scanned.  Returns the number of slots freed.  The caller is
        responsible for re-reserving the net's terminals afterwards.
        Inside a transaction the rip is journaled and fully undone by
        ``rollback()`` (wiring *and* ledger restored).
        """
        if net_id < 1:
            raise ValueError("net ids must be >= 1")
        ledger = self._net_ledger.pop(net_id, None)
        if not ledger:
            return 0
        freed = 0
        H, V = self._h_owner, self._v_owner
        for tag, a, b, c in _records(ledger):
            if tag == _LEDGER_C:
                if H[b, a] == net_id:
                    H[b, a] = FREE
                    freed += 1
                if V[a, b] == net_id:
                    V[a, b] = FREE
                    freed += 1
                continue
            row = (H if tag == _LEDGER_H else V)[a, b : c + 1]
            mask = row == net_id  # overlap-safe: count each slot once
            freed += int(mask.sum())
            row[mask] = FREE
        if self._txns:
            self._journal.append(("rip", net_id, ledger))
        return freed

    def ledgered_net_ids(self) -> list[int]:
        """Net ids with a non-empty mutation ledger, sorted."""
        return sorted(i for i, entries in self._net_ledger.items() if entries)

    def ledger_entries(self, net_id: int) -> tuple[tuple, ...]:
        """A read-only copy of a net's mutation ledger.

        Entries are ``("h", h_idx, v_lo, v_hi)`` for horizontal spans,
        ``("v", v_idx, h_lo, h_hi)`` for vertical spans and
        ``("c", v_idx, h_idx)`` for both-slot claims (corner vias and
        terminal stacks), in commit order.  The ``grid.ledger`` audit in
        :mod:`repro.check` replays these against the occupancy arrays.
        """
        return tuple(
            (_LEDGER_TAGS[tag], a, b) if tag == _LEDGER_C else (_LEDGER_TAGS[tag], a, b, c)
            for tag, a, b, c in _records(self._net_ledger.get(net_id, ()))
        )

    def net_cells_recorded(self, net_id: int) -> int:
        """Slots recorded in a net's ledger (overlaps counted twice).

        An upper bound on what :meth:`rip_net` will free; exposed for
        tests and benchmarks asserting the O(cells) rip-up contract.
        """
        cells = 0
        for tag, _, b, c in _records(self._net_ledger.get(net_id, ())):
            cells += 2 if tag == _LEDGER_C else c - b + 1
        return cells

    def owners_near(self, v_idx: int, h_idx: int, radius: int) -> list[int]:
        """Net ids wired within ``radius`` tracks of an intersection."""
        hw = slice(max(0, h_idx - radius), min(self.num_htracks, h_idx + radius + 1))
        vw = slice(max(0, v_idx - radius), min(self.num_vtracks, v_idx + radius + 1))
        h = self._h_owner[hw, vw]
        v = self._v_owner[vw, hw]
        ids = set(np.unique(h)) | set(np.unique(v))
        return sorted(int(i) for i in ids if i > 0)

    # ------------------------------------------------------------------
    # Cost-model statistics (drg / dup / acf inputs)
    # ------------------------------------------------------------------
    def window_counts(
        self, v_idx: np.ndarray, h_idx: np.ndarray, radius: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Slot and terminal counts of the window around each corner.

        Corner ``i`` is ``(v_idx[i], h_idx[i])``, which must lie on the
        grid; its window reaches ``radius`` tracks each way, clipped to
        the grid.  Returns, per corner, the slots (both directions)
        routed nets use, the unrouted terminals, the *busy* slots
        (routed or obstacle) and the window's cell count: the inputs of
        the cost model's ``drg``, ``dup`` and ``acf`` terms.  The
        ``(2r+1)^2`` windows are gathered by fancy indexing, and the
        cells a clipped window leaves off the grid are masked out.
        """
        v = np.asarray(v_idx, dtype=np.intp)
        h = np.asarray(h_idx, dtype=np.intp)
        nv, nh = self.num_vtracks, self.num_htracks
        if v.size and not (0 <= v.min() and v.max() < nv and 0 <= h.min() and h.max() < nh):
            raise IndexError(f"corners must lie on the {nv}x{nh} grid")
        # Each corner reads a block of up to (2r+1)^2 cells, shifted to
        # lie on the grid; ``near`` masks the block cells outside the
        # corner's clipped window.
        wv, wh = min(2 * radius + 1, nv), min(2 * radius + 1, nh)
        ov = np.minimum(np.maximum(v - radius, 0), nv - wv)
        oh = np.minimum(np.maximum(h - radius, 0), nh - wh)
        dv, dh = np.arange(wv), np.arange(wh)
        v_near = np.abs((ov - v)[:, None] + dv) <= radius
        h_near = np.abs((oh - h)[:, None] + dh) <= radius
        near = (h_near[:, :, None] & v_near[:, None, :]).reshape(len(v), wh * wv)
        # Flat offsets of the block cells in the [h, v] arrays (h owner,
        # terminals), then, in the same cell order and buffer, in the
        # [v, h] array.
        at = (oh * nv + ov)[:, None] + (dh[:, None] * nv + dv).ravel()
        h_own = self._h_owner.ravel().take(at)
        terms = self._unrouted_terms.ravel().take(at)
        np.add((ov * nh + oh)[:, None], (dv * nh + dh[:, None]).ravel(), out=at)
        v_own = self._v_owner.ravel().take(at)
        terms *= near
        used = ((h_own > FREE) & near).sum(axis=1) + ((v_own > FREE) & near).sum(axis=1)
        busy = ((h_own != FREE) & near).sum(axis=1) + ((v_own != FREE) & near).sum(axis=1)
        cells = v_near.sum(axis=1) * h_near.sum(axis=1)
        return used, terms.sum(axis=1, dtype=np.int64), busy, cells

    # ------------------------------------------------------------------
    # Whole-grid statistics
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of all slots carrying routed wiring."""
        used = int((self._h_owner > 0).sum()) + int((self._v_owner > 0).sum())
        return used / float(2 * self.num_intersections)

    def owners(self) -> list[int]:
        """Sorted list of net ids present anywhere on the grid."""
        ids = np.union1d(self._h_owner, self._v_owner)
        return [int(i) for i in ids[ids > 0]]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutingGrid({self.num_vtracks}x{self.num_htracks} tracks, "
            f"{self.utilization():.1%} used)"
        )


def narrowest_int(largest: int) -> np.dtype:
    """The narrowest signed integer dtype whose range reaches ``largest``.

    int8 up to 127, int16 up to 32,767, int32 up to 2**31 - 1.  Signed,
    because owner slots also hold ``OBSTACLE``.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"{largest} does not fit an int32 grid array")


def _usable(slots: np.ndarray, net_id: int) -> np.ndarray:
    """Cells of an owner-array read that are free or ``net_id``'s own."""
    ok: np.ndarray = (slots == FREE) | (slots == net_id)
    return ok


def _window_all(mask: np.ndarray, fp: tuple[int, int], axis: int) -> np.ndarray:
    """Does every footprint row around each index along ``axis`` hold?

    Entry ``i`` ANDs ``mask`` over the rows :meth:`RoutingGrid._expand_rows`
    gives for base ``i`` (clamped at the grid edge), counted as blocked
    rows in a cumulative sum.
    """
    span, guard = fp
    n = mask.shape[axis]
    shape = list(mask.shape)
    shape[axis] = 1
    blocked = np.concatenate(
        (np.zeros(shape, dtype=np.int32), np.cumsum(~mask, axis=axis, dtype=np.int32)),
        axis=axis,
    )
    base = np.arange(n)
    lo = np.maximum(base - guard, 0)
    hi = np.minimum(base + span + guard, n)
    window: np.ndarray = np.take(blocked, hi, axis=axis) == np.take(blocked, lo, axis=axis)
    return window


def _run_labels(mask: np.ndarray) -> np.ndarray:
    """Number each maximal run of set cells along the rows of ``mask``.

    Runs get ids ``1, 2, ...`` in row-major order; unset cells get 0.
    """
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    labels: np.ndarray = np.cumsum(starts, dtype=np.int32).reshape(mask.shape)
    labels[~mask] = 0
    return labels


def _records(ledger: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """A flat ledger's ``(tag, a, b, c)`` records, in commit order."""
    it = iter(ledger)
    return zip(it, it, it, it)

