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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import instrument
from repro.instrument.names import (
    MBFS_ABORTS,
    MBFS_NODES_EXPANDED,
    MBFS_SEARCHES,
    SPAN_MBFS_SEARCH,
)
from repro.geometry import Interval, Point
from repro.grid import RoutingGrid
from repro.grid.occupancy import bit_run
from repro.core.tig import GridTerminal

VERTICAL = "V"
HORIZONTAL = "H"


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
        entry point - how far the wire can slide.  Computed lazily
        (``None`` until the node is expanded or tested for completion);
        most frontier-leaf nodes never need it.
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
class CandidatePath:
    """A reconstructed minimum-corner candidate for one connection."""

    points: list[Point]
    corners: list[tuple[int, int]]
    length: int
    leaf: PSTNode

    @property
    def corner_count(self) -> int:
        return len(self.corners)


@dataclass
class SearchResult:
    """Outcome of the two MBFS runs for one two-terminal connection."""

    source: GridTerminal
    target: GridTerminal
    roots: list[PSTNode]
    leaves: list[PSTNode]
    min_corners: int | None
    nodes_created: int
    aborted: bool = False

    @property
    def found(self) -> bool:
        return self.min_corners is not None

    def release(self) -> None:
        """Free the Path Selection Trees without waiting for the collector.

        A tree is a web of reference cycles (``parent`` up, ``children``
        down), so a dropped result would otherwise linger until a cyclic
        garbage collection.  Emptying every ``children`` list lets
        reference counting free each node as soon as nothing else holds
        it.  Leaves and their candidates stay usable: ``chain()`` only
        walks ``parent``.
        """
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            node.children.clear()


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
        PSTs small while retaining path diversity (default 8).
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
        self.grid = grid
        self.net_id = net_id
        self.source = source
        self.target = target
        self.max_depth = max_depth
        self.max_nodes = max_nodes
        self.max_entries_per_track = max_entries_per_track
        # Validate both terminals once: the search indexes bitmasks by
        # track, where a bad index would shift silently instead of raise.
        source.position(grid)
        target.position(grid)
        self.v_region, self.h_region = search_window(grid, source, target, region)
        self._nodes_created = 0
        self._aborted = False
        # Per-search row cache, one dict per track kind: track index ->
        # ``RoutingGrid.track_bits`` over the region.  The grid does not
        # change during a search, so each row is read at most once.
        self._rows: dict[str, dict[int, tuple[int, int]]] = {
            VERTICAL: {},
            HORIZONTAL: {},
        }

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Run both searches and keep the global minimum-corner leaves.

        Search effort is tallied locally (``self._nodes_created``) and
        reported to the instrumentation collector in one batch here, so
        the per-node expansion loop carries no observability cost.
        """
        roots: list[PSTNode] = []
        all_leaves: list[tuple[int, list[PSTNode]]] = []
        best_depth: int | None = None
        with instrument.span(SPAN_MBFS_SEARCH):
            for kind in (VERTICAL, HORIZONTAL):
                limit = self.max_depth if best_depth is None else best_depth
                root, leaves, depth = self._single_search(kind, limit)
                if root is not None:
                    roots.append(root)
                if depth is not None:
                    all_leaves.append((depth, leaves))
                    best_depth = (
                        depth if best_depth is None else min(best_depth, depth)
                    )
        leaves = [
            leaf for depth, group in all_leaves if depth == best_depth for leaf in group
        ]
        inst = instrument.active()
        if inst.enabled:
            inst.count(MBFS_SEARCHES)
            inst.count(MBFS_NODES_EXPANDED, self._nodes_created)
            if self._aborted:
                inst.count(MBFS_ABORTS)
        return SearchResult(
            source=self.source,
            target=self.target,
            roots=roots,
            leaves=leaves,
            min_corners=best_depth,
            nodes_created=self._nodes_created,
            aborted=self._aborted,
        )

    # ------------------------------------------------------------------
    def _single_search(
        self, root_kind: str, depth_limit: int
    ) -> tuple[PSTNode | None, list[PSTNode], int | None]:
        """One MBFS from one of the source's two tracks.

        Whole-row bit operations stand in for per-crossing bookkeeping.
        Per child kind, an *enterable* bitmask over the region's tracks
        holds the tracks a child may still enter: a track leaves it at
        the end of the level that first reached it (it is examined once)
        or as soon as its same-level entry cap is hit.  The target track
        never leaves it.  A node's children are then the set bits of
        ``corner & span & enterable & ~entry``, walked in ascending order.
        """
        source, target = self.source, self.target
        if root_kind == VERTICAL:
            track, entry = source.v_idx, source.h_idx
        else:
            track, entry = source.h_idx, source.v_idx
        root = PSTNode(
            kind=root_kind, track=track, entry=entry, span=None, parent=None, depth=0
        )
        if self._node_span(root) is None:
            return None, [], None
        self._nodes_created += 1
        if self._completes(root):
            return root, [root], 0
        cap = self.max_entries_per_track
        # Per kind: region offset of its track indices, target bit and
        # enterable mask (indexed by track - offset).
        offset = {VERTICAL: self.v_region.lo, HORIZONTAL: self.h_region.lo}
        target_bit = {
            VERTICAL: 1 << (target.v_idx - offset[VERTICAL]),
            HORIZONTAL: 1 << (target.h_idx - offset[HORIZONTAL]),
        }
        enterable = {
            VERTICAL: (1 << self.v_region.count) - 1 if cap > 0 else 0,
            HORIZONTAL: (1 << self.h_region.count) - 1 if cap > 0 else 0,
        }
        # The root's own track counts as reached at level 0.
        enterable[root_kind] &= ~(1 << (track - offset[root_kind]))
        for k in (VERTICAL, HORIZONTAL):
            enterable[k] |= target_bit[k]
        rows = self._rows
        nodes_created = self._nodes_created
        max_nodes = self.max_nodes
        frontier = [root]
        level = 0
        kind = root_kind
        while frontier and level < depth_limit:
            level += 1
            child_kind = HORIZONTAL if kind == VERTICAL else VERTICAL
            node_rows = rows[kind]
            base = offset[child_kind]
            t_bit = target_bit[child_kind]
            enter = enterable[child_kind]
            entries = [0] * (enter.bit_length())
            reached = 0
            next_frontier: list[PSTNode] = []
            completions: list[PSTNode] = []
            for node in frontier:
                span = self._node_span(node)  # also caches the node's row
                if span is None:  # entry cell got unusable - cannot happen
                    continue
                corner = node_rows[node.track][1]
                cands = (
                    corner
                    & ((1 << (span.hi - base + 1)) - (1 << (span.lo - base)))
                    & enter
                    & ~(1 << (node.entry - base))
                )
                depth = node.depth + 1
                children = node.children
                on_target: PSTNode | None = None
                while cands:
                    low = cands & -cands
                    cands ^= low
                    i = low.bit_length() - 1
                    if low != t_bit:
                        seen = entries[i] + 1
                        entries[i] = seen
                        reached |= low
                        if seen >= cap:
                            enter &= ~low
                    child = PSTNode(child_kind, base + i, node.track, None, node, depth)
                    children.append(child)
                    nodes_created += 1
                    if nodes_created > max_nodes:  # node budget exhausted
                        self._nodes_created = nodes_created
                        self._aborted = True
                        return root, [], None
                    next_frontier.append(child)
                    if low == t_bit:
                        on_target = child
                if on_target is not None and self._completes(on_target):
                    completions.append(on_target)
            self._nodes_created = nodes_created
            enterable[child_kind] = enter & ~reached
            if completions:
                return root, completions, level
            frontier = next_frontier
            kind = child_kind
        return root, [], None

    def _node_span(self, node: PSTNode) -> Interval | None:
        """The node's slide interval, computed on first use.

        Read off the track's usable bits with :func:`bit_run`; each
        track's bits are fetched once per search (both runs share them).
        """
        if node.span is None:
            kind = node.kind
            bits = self._rows[kind].get(node.track)
            iv = self.h_region if kind == VERTICAL else self.v_region
            if bits is None:
                bits = self.grid.track_bits(
                    kind == VERTICAL, node.track, iv.lo, iv.hi, self.net_id
                )
                self._rows[kind][node.track] = bits
            run = bit_run(bits[0], node.entry - iv.lo)
            if run is not None:
                node.span = Interval(run[0] + iv.lo, run[1] + iv.lo)
        return node.span

    def _completes(self, node: PSTNode) -> bool:
        """Can the path slide along ``node``'s track onto the terminal?"""
        if node.kind == VERTICAL:
            if node.track != self.target.v_idx:
                return False
            span = self._node_span(node)
            return span is not None and span.contains(self.target.h_idx)
        if node.track != self.target.h_idx:
            return False
        span = self._node_span(node)
        return span is not None and span.contains(self.target.v_idx)


# ----------------------------------------------------------------------
# Path reconstruction
# ----------------------------------------------------------------------
def candidate_paths(
    result: SearchResult, grid: RoutingGrid
) -> list[CandidatePath]:
    """Geometric candidates for every minimum-corner leaf.

    Each candidate's point list runs source, corners..., target with
    consecutive points axis-aligned; duplicate consecutive points
    (a corner coinciding with a terminal) are merged.
    """
    out: list[CandidatePath] = []
    src = result.source.position(grid)
    dst = result.target.position(grid)
    for leaf in result.leaves:
        chain = leaf.chain()
        corners: list[tuple[int, int]] = []
        for parent, child in zip(chain, chain[1:]):
            if parent.kind == VERTICAL:
                corners.append((parent.track, child.track))
            else:
                corners.append((child.track, parent.track))
        points: list[Point] = [src]
        for v_idx, h_idx in corners:
            x, y = grid.coord_of(v_idx, h_idx)
            points.append(Point(x, y))
        points.append(dst)
        deduped = [points[0]]
        for p in points[1:]:
            if p != deduped[-1]:
                deduped.append(p)
        length = sum(a.manhattan_to(b) for a, b in zip(deduped, deduped[1:]))
        out.append(
            CandidatePath(points=deduped, corners=corners, length=length, leaf=leaf)
        )
    return out
