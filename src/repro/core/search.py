"""Modified breadth-first search over the Track Intersection Graph.

Paper, section 3.1: for each two-terminal connection, *all* paths with
the minimum number of corners are found by two modified breadth-first
searches, one starting from each of the source terminal's two tracks.
The searches build **Path Selection Trees** whose nodes are track
visits; the best path is later chosen from these trees
(:mod:`repro.core.select`).

Key properties implemented here, matching the paper:

* A path is a sequence of alternating horizontal and vertical track
  segments; its corner count equals the number of track switches
  (the arrival at the target terminal is not a corner, so the example
  path ``(v2, h4, v6)`` of Figure 1 has exactly one corner).
* Each vertex (track) is *examined exactly once* - once a track has
  been reached at some BFS level it is not re-entered at a later
  level - **except the target vertices**, which may be entered at any
  level.  This excludes paths with more than one corner on the same
  track and is what makes the search fast.
* Several Path Selection Tree nodes may exist for the same track at
  the same level (one per distinct parent), which is how the trees of
  Figure 2 contain the vertex ``h4`` twice.
* The solution space of each search is a rectangular region around the
  two terminals; the caller widens the region and retries on failure.

The trees are kept as per-level arrays.  :func:`candidate_paths` reads
the minimum-corner leaves' chains from them into one
:class:`CandidateBatch` of corner arrays, the only form in which
selection and the engine's commit see a candidate.  Beyond each
search's root, ``PSTNode`` objects exist only once
:attr:`SearchResult.roots` or :attr:`SearchResult.leaves` is read
(Figure 2, :func:`repro.viz.render_pst`, the tests).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import instrument
from repro.instrument.names import (
    MBFS_ABORTS,
    MBFS_NODES_EXPANDED,
    MBFS_SEARCHES,
    SPAN_MBFS_SEARCH,
)
from repro.geometry import Interval, Point
from repro.grid import RoutingGrid
from repro.core.tig import GridTerminal

VERTICAL = "V"
HORIZONTAL = "H"

#: No completing node (a read-only empty index array).
_NONE = np.zeros(0, dtype=np.intp)
_NONE.flags.writeable = False


@dataclass(slots=True)
class PSTNode:
    """One node of a Path Selection Tree: a visit to a track.

    Attributes
    ----------
    kind:
        ``"V"`` when the node is a vertical track, ``"H"`` horizontal.
    track:
        Index of the track in its track set.
    entry:
        Index on the *orthogonal* track set where the path entered this
        track (the entry intersection is ``(track, entry)`` for a
        vertical node and ``(entry, track)`` for a horizontal one).
    span:
        The maximal usable index interval along this track around the
        entry point - how far the wire can slide.  Set on the nodes the
        search expanded or tested for completion, the leaves included;
        ``None`` elsewhere.
    parent:
        The previous track visit (``None`` at a root).
    depth:
        Number of track switches from the root, i.e. the corner count
        of a path completed at this node.
    """

    kind: str
    track: int
    entry: int
    span: Interval | None
    parent: "PSTNode" | None
    depth: int
    children: list["PSTNode"] = field(default_factory=list, repr=False)

    def name(self) -> str:
        """Paper-style vertex name (``v3`` / ``h2``, 1-based)."""
        return f"{'v' if self.kind == VERTICAL else 'h'}{self.track + 1}"

    def chain(self) -> list["PSTNode"]:
        """Root-to-this node list."""
        nodes: list[PSTNode] = []
        node: PSTNode | None = self
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes

    def track_sequence(self) -> list[str]:
        """Paper-style track name sequence from the root."""
        return [n.name() for n in self.chain()]


@dataclass
class SearchResult:
    """Outcome of the two MBFS runs for one two-terminal connection.

    The minimum-corner leaves stay arrays: ``_done`` holds, for each
    search that reached the best depth, its tree and the indices of its
    completing last-level nodes.  :attr:`roots` builds the whole Path
    Selection Trees, spans included, on first access, and
    :attr:`leaves` reads the completing nodes from them.
    """

    source: GridTerminal
    target: GridTerminal
    min_corners: int | None
    nodes_created: int
    aborted: bool = False
    _trees: list["_Tree"] = field(default_factory=list, repr=False)
    _done: list[tuple["_Tree", np.ndarray]] = field(default_factory=list, repr=False)
    _roots: list[PSTNode] | None = field(default=None, init=False, repr=False)

    @property
    def found(self) -> bool:
        return self.min_corners is not None

    @property
    def leaves(self) -> list[PSTNode]:
        """The minimum-corner leaves, search by search, in candidate order.

        Leaf ``i`` is candidate ``i`` of :func:`candidate_paths`.
        """
        self.roots  # noqa: B018 - the leaves are the built trees' nodes
        return [tree.last[i] for tree, done in self._done for i in done.tolist()]

    @property
    def roots(self) -> list[PSTNode]:
        """One Path Selection Tree root per search that had one."""
        if self._roots is None:
            self._roots = [tree.build() for tree in self._trees]
        return self._roots


def search_window(
    grid: RoutingGrid,
    source: GridTerminal,
    target: GridTerminal,
    region: tuple[Interval, Interval] | None,
) -> tuple[Interval, Interval]:
    """The ``(v, h)`` index intervals a search over ``region`` reads.

    A bounded region is widened to hold both terminals and clipped to
    the grid; ``None`` is the whole grid.  Two regions with the same
    window are the same search.
    """
    if region is None:
        return (
            Interval(0, grid.num_vtracks - 1),
            Interval(0, grid.num_htracks - 1),
        )
    return (
        grid.vtracks.clip_indices(
            region[0].hull(Interval.spanning(source.v_idx, target.v_idx))
        ),
        grid.htracks.clip_indices(
            region[1].hull(Interval.spanning(source.h_idx, target.h_idx))
        ),
    )


class _Axis:
    """One track kind's rows of the search window.

    Row ``t`` is the kind's track ``base + t``; column ``p`` is position
    ``along + p`` on it, i.e. the orthogonal kind's track ``along + p``.
    ``lo``/``hi`` hold, for every usable cell, the first and last column
    of the usable run through it: a node's slide interval.  ``target``
    is the row of the target's track and ``goal`` the target's column
    on it; a child entering row ``target`` completes when its entry
    lies in ``[goal_lo, goal_hi]``, the run holding the goal (empty when
    the goal cell is unusable).
    """

    __slots__ = (
        "kind", "base", "along", "usable", "corner", "lo", "hi", "cols",
        "target", "goal_lo", "goal_hi",
    )

    def __init__(
        self,
        kind: str,
        base: int,
        along: int,
        usable: np.ndarray,
        corner: np.ndarray,
        target: int,
        goal: int,
    ) -> None:
        self.kind = kind
        self.base = base
        self.along = along
        self.usable = usable
        self.corner = corner
        self.lo, self.hi = _run_bounds(usable)
        self.cols = np.arange(usable.shape[1])
        self.target = target
        if usable[target, goal]:
            self.goal_lo = int(self.lo[target, goal])
            self.goal_hi = int(self.hi[target, goal])
        else:
            self.goal_lo, self.goal_hi = 1, 0

    def span(self, track: int, entry: int) -> Interval:
        """The grid-index slide interval of a node at (row, column)."""
        return Interval(
            int(self.lo[track, entry]) + self.along,
            int(self.hi[track, entry]) + self.along,
        )


def _run_bounds(usable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the first and last column of the usable run through it.

    Only usable cells hold meaningful values.  A running maximum of the
    run starts gives ``lo``; a running minimum of the run ends, taken
    from the right, gives ``hi``.  Bounds rather than run labels
    (``_run_labels``, the flood's): a level then compares its rows with
    two per-node vectors instead of gathering an ``int32`` label row per
    node, which would more than double the level's temporaries.
    """
    n = usable.shape[1]
    cols = np.arange(n, dtype=np.int32)
    edge = usable.copy()
    edge[:, 1:] &= ~usable[:, :-1]
    lo = np.where(edge, cols, 0)
    np.maximum.accumulate(lo, axis=1, out=lo)
    edge = usable.copy()
    edge[:, :-1] &= ~usable[:, 1:]
    hi = np.where(edge, cols, n)[:, ::-1]
    np.minimum.accumulate(hi, axis=1, out=hi)
    return lo, hi[:, ::-1]


class _Tree:
    """One search's Path Selection Tree, stored as per-level arrays.

    ``levels[L - 1]`` holds level ``L``'s nodes in creation order as
    ``(rows, parents)``: each node's track row on its axis and its
    parent's index in level ``L - 1`` (level 0 is the root alone).  A
    node's entry is its parent's track.  Path selection reads chains as
    arrays (:meth:`rows`); ``PSTNode`` objects other than the root
    exist only once :meth:`build` makes the whole tree, which keeps its
    last level's nodes in ``last``.

    ``abort_parent`` is the index of the frontier node whose child broke
    the node budget in the last level, or ``None``.  The search expanded
    every frontier node of every level before the last one and, in the
    last level, the frontier nodes up to that parent; it tested for
    completion the target-track child of every expanded node but that
    parent.  Those are the nodes :meth:`build` gives spans.
    """

    __slots__ = ("axes", "root", "levels", "abort_parent", "last")

    def __init__(self, axes: tuple[_Axis, _Axis], root: PSTNode) -> None:
        self.axes = axes  # (root kind, other kind)
        self.root = root
        self.levels: list[tuple[np.ndarray, np.ndarray]] = []
        self.abort_parent: int | None = None
        self.last: list[PSTNode] = []

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Each last-level node's chain as window rows, root first.

        Row ``i`` of the ``(len(indices), depth + 1)`` result holds the
        track rows, on their own axes, of node ``indices[i]`` and of its
        ancestors up to the root, in column ``depth`` down to column 0.
        """
        depth = len(self.levels)
        out = np.empty((len(indices), depth + 1), dtype=np.int32)
        out[:, 0] = self.root.track - self.axes[0].base
        idx = indices
        for level in range(depth, 0, -1):
            rows, parents = self.levels[level - 1]
            out[:, level] = rows[idx]
            idx = parents[idx]
        return out

    def build(self) -> PSTNode:
        """Link the whole tree (children and spans) and return its root."""
        root = self.root
        axis = self.axes[0]
        root.span = axis.span(root.track - axis.base, root.entry - axis.along)
        frontier = [root]
        depth = len(self.levels)
        for level, (rows, parents) in enumerate(self.levels, start=1):
            axis, parent_axis = self.axes[level % 2], self.axes[(level - 1) % 2]
            expanded = len(rows)
            checked = len(frontier)
            if level == depth - 1 and self.abort_parent is not None:
                expanded = self.abort_parent + 1
            elif level == depth:
                expanded = 0
                if self.abort_parent is not None:
                    checked = self.abort_parent
            nodes: list[PSTNode] = []
            for i, (row, p) in enumerate(zip(rows.tolist(), parents.tolist())):
                parent = frontier[p]
                node = PSTNode(
                    axis.kind, row + axis.base, parent.track, None, parent, level
                )
                parent.children.append(node)
                if i < expanded or (row == axis.target and p < checked):
                    node.span = axis.span(row, parent.track - parent_axis.base)
                nodes.append(node)
            frontier = nodes
        self.last = frontier
        return root


class MBFSearch:
    """One two-terminal search instance.

    Parameters
    ----------
    grid:
        The occupancy grid (the stored TIG).
    net_id:
        The routing net; its own wiring and reserved terminals count as
        usable space.
    source, target:
        The connection's terminals (TIG edges).
    region:
        Optional ``(v_interval, h_interval)`` *index-space* bounding
        region; it is expanded, if necessary, to contain both
        terminals.
    max_depth:
        Upper bound on corners considered (default 12).
    max_nodes:
        Safety cap on Path Selection Tree size; exceeded searches
        report ``aborted`` (default 250_000).
    max_entries_per_track:
        Cap on same-level duplicate entries kept per track; keeps the
        PSTs small while retaining path diversity (default 8).  The
        target's two tracks are exempt (a cap of 0 still lets the search
        enter them); a negative cap raises :class:`ValueError`.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        net_id: int,
        source: GridTerminal,
        target: GridTerminal,
        region: tuple[Interval, Interval] | None = None,
        max_depth: int = 12,
        max_nodes: int = 250_000,
        max_entries_per_track: int = 8,
    ) -> None:
        if max_entries_per_track < 0:
            raise ValueError(
                f"max_entries_per_track must be >= 0, got {max_entries_per_track}"
            )
        self.grid = grid
        self.net_id = net_id
        self.source = source
        self.target = target
        self.max_depth = max_depth
        self.max_nodes = max_nodes
        self.max_entries_per_track = max_entries_per_track
        # Validate both terminals once: the search indexes the window
        # arrays by track, where a bad index would wrap instead of raise.
        source.position(grid)
        target.position(grid)
        self.v_region, self.h_region = search_window(grid, source, target, region)
        self._nodes_created = 0
        self._aborted = False

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Run both searches and keep the global minimum-corner leaves.

        The window is read once, as the three boolean matrices of
        :meth:`RoutingGrid.window_masks`, and both searches expand it one
        BFS level per numpy step.  Search effort is reported to the
        instrumentation collector in one batch here.
        """
        trees: list[_Tree] = []
        found: list[tuple[int, _Tree, np.ndarray]] = []
        best_depth: int | None = None
        with instrument.span(SPAN_MBFS_SEARCH):
            v_iv, h_iv = self.v_region, self.h_region
            usable_h, usable_v, corner = self.grid.window_masks(
                self.net_id, v_iv, h_iv
            )
            t = self.target
            v_axis = _Axis(
                VERTICAL, v_iv.lo, h_iv.lo, usable_v,
                np.ascontiguousarray(corner.T),
                t.v_idx - v_iv.lo, t.h_idx - h_iv.lo,
            )
            h_axis = _Axis(
                HORIZONTAL, h_iv.lo, v_iv.lo, usable_h, corner,
                t.h_idx - h_iv.lo, t.v_idx - v_iv.lo,
            )
            for axes in ((v_axis, h_axis), (h_axis, v_axis)):
                limit = self.max_depth if best_depth is None else best_depth
                tree, done, depth = self._search(axes, limit)
                if tree is not None:
                    trees.append(tree)
                if depth is not None:
                    found.append((depth, tree, done))
                    best_depth = (
                        depth if best_depth is None else min(best_depth, depth)
                    )
        inst = instrument.active()
        if inst.enabled:
            inst.count(MBFS_SEARCHES)
            inst.count(MBFS_NODES_EXPANDED, self._nodes_created)
            if self._aborted:
                inst.count(MBFS_ABORTS)
        return SearchResult(
            source=self.source,
            target=self.target,
            min_corners=best_depth,
            nodes_created=self._nodes_created,
            aborted=self._aborted,
            _trees=trees,
            _done=[(tree, done) for depth, tree, done in found if depth == best_depth],
        )

    # ------------------------------------------------------------------
    def _search(
        self, axes: tuple[_Axis, _Axis], depth_limit: int
    ) -> tuple[_Tree | None, np.ndarray, int | None]:
        """One MBFS from one of the source's two tracks.

        Returns the tree (``None`` when the source track is unusable),
        the indices of the completing nodes in its last level, and their
        depth (``None`` when none completed).

        Each level is one step over the frontier's (row, entry) arrays.
        A node's candidate children are its corner row ANDed with its
        usable run, the child kind's *enterable* columns and everything
        but its entry column.  A column stays enterable until the end of
        the level that first reached it (each track is examined once),
        except the target's, which always is; within a level, a column
        keeps its first ``max_entries_per_track`` entries in frontier
        order, which is exactly the per-entry cap of a node-by-node
        walk.  The level is counted once against the node budget, and
        ``np.nonzero`` lists the children in row-major order - frontier
        order, then ascending track - the next frontier.
        """
        own = axes[0]
        source = self.source
        if own.kind == VERTICAL:
            track, entry = source.v_idx - own.base, source.h_idx - own.along
        else:
            track, entry = source.h_idx - own.base, source.v_idx - own.along
        if not own.usable[track, entry]:
            return None, _NONE, None
        root = PSTNode(own.kind, track + own.base, entry + own.along, None, None, 0)
        tree = _Tree(axes, root)
        self._nodes_created += 1
        if track == own.target and own.goal_lo <= entry <= own.goal_hi:
            return tree, np.zeros(1, dtype=np.intp), 0
        cap = self.max_entries_per_track
        enterable = []
        for axis in axes:
            enter = np.full(axis.usable.shape[0], cap > 0)
            if axis is own:
                enter[track] = False  # the root's track is reached at level 0
            enter[axis.target] = True
            enterable.append(enter)
        rows = np.array([track])
        entries = np.array([entry])
        created = self._nodes_created
        max_nodes = self.max_nodes
        level = 0
        while rows.size and level < depth_limit:
            level += 1
            axis, child = axes[(level - 1) % 2], axes[level % 2]
            enter = enterable[level % 2]
            cand = axis.corner[rows]
            cand &= axis.cols >= axis.lo[rows, entries][:, None]
            cand &= axis.cols <= axis.hi[rows, entries][:, None]
            cand &= enter
            cand[np.arange(rows.size), entries] = False
            if rows.size > cap:  # else no column can exceed the cap
                counts = cand.sum(axis=0, dtype=np.int32)
                counts[child.target] = 0
                over = np.flatnonzero(counts > cap)
                if over.size:
                    sub = cand[:, over]
                    sub &= np.cumsum(sub, axis=0, dtype=np.int32) <= cap
                    cand[:, over] = sub
            parents, kids = np.nonzero(cand)
            aborted = kids.size > 0 and created + kids.size > max_nodes
            if aborted:  # keep the children up to the one that crosses
                keep = max(max_nodes - created, 0) + 1
                parents, kids = parents[:keep], kids[:keep]
            created += kids.size
            self._nodes_created = created
            tree.levels.append((kids, parents))
            if aborted:
                tree.abort_parent = int(parents[-1])
                self._aborted = True
                return tree, _NONE, None
            on_target = np.flatnonzero(kids == child.target)
            if on_target.size:
                entered = rows[parents[on_target]]
                done = on_target[
                    (entered >= child.goal_lo) & (entered <= child.goal_hi)
                ]
                if done.size:
                    return tree, done, level
            enter[kids] = False
            enter[child.target] = True
            rows, entries = kids, rows[parents]
        return tree, _NONE, None


# ----------------------------------------------------------------------
# Path reconstruction
# ----------------------------------------------------------------------
@dataclass(slots=True, eq=False)
class CandidateBatch:
    """A connection's minimum-corner candidates as arrays, in leaf order.

    Every candidate has ``depth`` corners: candidate ``i``'s are
    ``(v[j], h[j])`` for ``j`` in ``range(i * depth, (i + 1) * depth)``,
    its wire length is ``lengths[i]`` and its leaf is
    ``SearchResult.leaves[i]``.  ``order`` lists the candidates by
    ascending ``(length, first point after the source)``, ties in leaf
    order: the order :func:`repro.core.select.select_best_path` walks.
    ``geometry(i)`` builds candidate ``i``'s points and corners, the
    arguments of :meth:`RoutingGrid.commit_path`.
    """

    v: np.ndarray
    h: np.ndarray
    depth: int
    lengths: np.ndarray
    order: np.ndarray
    geometry: Callable[[int], tuple[list[Point], list[tuple[int, int]]]]

    def __len__(self) -> int:
        return len(self.lengths)


def candidate_paths(result: SearchResult, grid: RoutingGrid) -> CandidateBatch:
    """Every minimum-corner candidate of a search, as one batch.

    The corners come from the trees' level arrays, each length is one
    integer expression over the track coordinates and the walk order
    one stable ``np.lexsort``.  A candidate's point list runs source,
    corners..., target with consecutive points axis-aligned; duplicate
    consecutive points (a corner on a terminal) are merged.
    """
    if not result._done:  # no candidate: ``geometry`` raises IndexError
        return CandidateBatch(_NONE, _NONE, 0, _NONE, _NONE, [].__getitem__)
    src = result.source.position(grid)
    dst = result.target.position(grid)
    vt, ht = grid.vtracks, grid.htracks
    depth = result.min_corners or 0
    # Both searches read the same window, as the same two axes.
    axes = result._done[0][0].axes
    v_axis, h_axis = axes if axes[0].kind == VERTICAL else axes[::-1]
    # Corner j joins the tracks of levels j - 1 and j; the vertical one
    # is the even level when the root is vertical.
    j = np.arange(1, depth + 1)
    even, odd = j - j % 2, j - 1 + j % 2
    v_parts: list[np.ndarray] = []
    h_parts: list[np.ndarray] = []
    for tree, done in result._done:
        rows = tree.rows(done)
        v_cols, h_cols = (even, odd) if tree.axes[0] is v_axis else (odd, even)
        v_parts.append(rows[:, v_cols])
        h_parts.append(rows[:, h_cols])
    v_rows = np.concatenate(v_parts)
    h_rows = np.concatenate(h_parts)
    n = len(v_rows)
    # Window rows to coordinates, over the window the searches read.
    xs = np.array(vt.coords[v_axis.base : v_axis.base + v_axis.usable.shape[0]])
    ys = np.array(ht.coords[h_axis.base : h_axis.base + h_axis.usable.shape[0]])
    x = np.empty((n, depth + 2), dtype=np.int64)
    y = np.empty((n, depth + 2), dtype=np.int64)
    x[:, 0], x[:, -1], x[:, 1:-1] = src.x, dst.x, xs[v_rows]
    y[:, 0], y[:, -1], y[:, 1:-1] = src.y, dst.y, ys[h_rows]
    # Consecutive points share a track, so a candidate's length is the
    # sum of both coordinates' steps.
    lengths = np.abs(x[:, 1:] - x[:, :-1]).sum(axis=1) + np.abs(
        y[:, 1:] - y[:, :-1]
    ).sum(axis=1)
    # Point 1 is the first corner, or the target when there is none:
    # the search never turns onto the source's own orthogonal track.
    order = np.lexsort((y[:, 1], x[:, 1], lengths))
    v = (v_rows + v_axis.base).ravel()
    h = (h_rows + h_axis.base).ravel()

    def geometry(i: int) -> tuple[list[Point], list[tuple[int, int]]]:
        if not 0 <= i < n:
            raise IndexError(f"candidate {i} of {n}")
        lo = i * depth
        corners: list[tuple[int, int]] = []
        points = [src]
        for v_idx, h_idx in zip(v[lo : lo + depth].tolist(), h[lo : lo + depth].tolist()):
            corners.append((v_idx, h_idx))
            point = Point(vt[v_idx], ht[h_idx])
            if point != points[-1]:
                points.append(point)
        if dst != points[-1]:
            points.append(dst)
        return points, corners

    return CandidateBatch(v, h, depth, lengths, order, geometry)
