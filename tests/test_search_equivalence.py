"""Differential equivalence: level-step MBFS, run-transform Lee and the flood vs per-cell.

The MBFS and Lee read their window once as boolean matrices
(:meth:`RoutingGrid.window_masks`); the MBFS expands one BFS level per
numpy step, counting the level it ends on and listing it only when its
trees are built, and Lee computes exact distances by rounds of run
transforms over the matrices, then derives its path and pop count from
them.  This module keeps a test-local copy of the per-crossing MBFS
expansion and the per-probe heap Lee wave as the oracle, both reading
the grid one cell at a time through ``h_slot``/``v_slot``, and checks
on random grids - obstacles, foreign wiring, wide-net footprints,
foreign pin keep-outs, random regions, entry caps (zero included),
depth limits and node budgets small enough to abort, in inner and in
last levels - that the fast engines produce
exactly the oracle's searches: the same minimum corner count, abort
flag, node count, ordered leaves and Path Selection Tree, spans
included, and the same Lee paths and expansion counts at the routing
callers' corner prices and at the extremes.  The window and
whole-grid masks must match the per-cell reads, and the reachability
flood (:meth:`RoutingGrid.reachable`) must agree with whether the
oracle's whole-grid Lee wave finds a path.  A grid replayed with int8
owners must read, flood and search exactly as with int32.
"""

from __future__ import annotations

import contextlib
import heapq
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.search import HORIZONTAL, VERTICAL, MBFSearch, PSTNode
from repro.core.tig import GridTerminal
from repro.geometry import Interval, Point, Rect
from repro.grid import RoutingGrid, TrackSet
from repro.grid.occupancy import FREE
from repro.maze.lee import lee_search

from conftest import run_through, span_usable, track_cells

NET = 1


# ----------------------------------------------------------------------
# Per-cell availability (the oracle's only view of the grid)
# ----------------------------------------------------------------------
def _expand(grid: RoutingGrid, base: int, n: int) -> range:
    span, guard = grid.footprint_of(NET)
    return range(max(0, base - guard), min(n - 1, base + span - 1 + guard) + 1)


def _ok(owner: int) -> bool:
    return owner in (FREE, NET)


def _kept_out(grid: RoutingGrid, v: int, h: int) -> bool:
    """Is (v, h) another net's pin keep-out (as ``add_keepout`` recorded it)?"""
    return grid._keepouts_v.get(v, {}).get(h, NET) != NET


def ref_h_ok(grid: RoutingGrid, v: int, h: int) -> bool:
    """May the net run horizontal wire through (v, h)?"""
    return not _kept_out(grid, v, h) and all(
        _ok(grid.h_slot(v, r)) for r in _expand(grid, h, grid.num_htracks)
    )


def ref_v_ok(grid: RoutingGrid, v: int, h: int) -> bool:
    """May the net run vertical wire through (v, h)?"""
    return not _kept_out(grid, v, h) and all(
        _ok(grid.v_slot(r, h)) for r in _expand(grid, v, grid.num_vtracks)
    )


def ref_corner(grid: RoutingGrid, v: int, h: int) -> bool:
    """May the net place a corner via at (v, h)?"""
    return not _kept_out(grid, v, h) and all(
        _ok(grid.h_slot(vv, hh)) and _ok(grid.v_slot(vv, hh))
        for vv in _expand(grid, v, grid.num_vtracks)
        for hh in _expand(grid, h, grid.num_htracks)
    )


def _scan_span(ok, pos: int, lo: int, hi: int) -> Interval | None:
    if not lo <= pos <= hi or not ok(pos):
        return None
    a = pos
    while a > lo and ok(a - 1):
        a -= 1
    b = pos
    while b < hi and ok(b + 1):
        b += 1
    return Interval(a, b)


# ----------------------------------------------------------------------
# Oracle: the per-crossing MBFS expansion
# ----------------------------------------------------------------------
class ReferenceSearch:
    """Per-crossing MBFS: tuple-keyed visited / per-level entry dicts."""

    def __init__(self, grid, source, target, region, max_depth, max_nodes, cap):
        self.grid = grid
        self.source = source
        self.target = target
        self.max_depth = max_depth
        self.max_nodes = max_nodes
        self.max_entries_per_track = cap
        if region is None:
            v_iv = Interval(0, grid.num_vtracks - 1)
            h_iv = Interval(0, grid.num_htracks - 1)
        else:
            v_iv = grid.vtracks.clip_indices(
                region[0].hull(Interval.spanning(source.v_idx, target.v_idx))
            )
            h_iv = grid.htracks.clip_indices(
                region[1].hull(Interval.spanning(source.h_idx, target.h_idx))
            )
        self.v_region = v_iv
        self.h_region = h_iv
        self.nodes_created = 0
        self.aborted = False

    def run(self):
        roots, all_leaves, best_depth = [], [], None
        for kind in (VERTICAL, HORIZONTAL):
            limit = self.max_depth if best_depth is None else best_depth
            root, leaves, depth = self._single_search(kind, limit)
            if root is not None:
                roots.append(root)
            if depth is not None:
                all_leaves.append((depth, leaves))
                best_depth = depth if best_depth is None else min(best_depth, depth)
        leaves = [leaf for d, group in all_leaves if d == best_depth for leaf in group]
        return roots, leaves, best_depth

    def _single_search(self, root_kind, depth_limit):
        if root_kind == VERTICAL:
            track, entry = self.source.v_idx, self.source.h_idx
        else:
            track, entry = self.source.h_idx, self.source.v_idx
        root = PSTNode(root_kind, track, entry, None, None, 0)
        if self._node_span(root) is None:
            return None, [], None
        self.nodes_created += 1
        visited = {(root_kind, track): 0}
        if self._completes(root):
            return root, [root], 0
        frontier, level = [root], 0
        while frontier and level < depth_limit:
            level += 1
            next_frontier, completions, entries = [], [], {}
            for node in frontier:
                children = self._expand(node, visited, entries, level)
                if children is None:
                    self.aborted = True
                    return root, [], None
                for child in children:
                    if self._is_target_track(child.kind, child.track) and (
                        self._completes(child)
                    ):
                        completions.append(child)
                    next_frontier.append(child)
            if completions:
                return root, completions, level
            frontier = next_frontier
        return root, [], None

    def _node_span(self, node):
        if node.span is None:
            g = self.grid
            if node.kind == VERTICAL:
                iv = self.h_region
                node.span = _scan_span(
                    lambda h: ref_v_ok(g, node.track, h), node.entry, iv.lo, iv.hi
                )
            else:
                iv = self.v_region
                node.span = _scan_span(
                    lambda v: ref_h_ok(g, v, node.track), node.entry, iv.lo, iv.hi
                )
        return node.span

    def _expand(self, node, visited, entries, level):
        span = self._node_span(node)
        if span is None:
            return []
        child_kind = HORIZONTAL if node.kind == VERTICAL else VERTICAL
        if node.kind == VERTICAL:
            crossings = [h for h in span if ref_corner(self.grid, node.track, h)]
        else:
            crossings = [v for v in span if ref_corner(self.grid, v, node.track)]
        children = []
        for cross in crossings:
            if cross == node.entry:
                continue
            key = (child_kind, cross)
            if not self._is_target_track(child_kind, cross):
                seen_level = visited.get(key)
                if seen_level is not None and seen_level < level:
                    continue
                if entries.get(key, 0) >= self.max_entries_per_track:
                    continue
                visited.setdefault(key, level)
                entries[key] = entries.get(key, 0) + 1
            child = PSTNode(child_kind, cross, node.track, None, node, node.depth + 1)
            node.children.append(child)
            self.nodes_created += 1
            if self.nodes_created > self.max_nodes:
                return None
            children.append(child)
        return children

    def _is_target_track(self, kind, track):
        if kind == VERTICAL:
            return track == self.target.v_idx
        return track == self.target.h_idx

    def _completes(self, node):
        if not self._is_target_track(node.kind, node.track):
            return False
        span = self._node_span(node)
        other = self.target.h_idx if node.kind == VERTICAL else self.target.v_idx
        return span is not None and span.contains(other)


# ----------------------------------------------------------------------
# Oracle: the per-probe Lee wave
# ----------------------------------------------------------------------
def reference_lee(grid, source, target, via_penalty, region):
    """Dijkstra over (v, h, direction) tuples, one slot read per probe."""
    if region is None:
        v_iv = Interval(0, grid.num_vtracks - 1)
        h_iv = Interval(0, grid.num_htracks - 1)
    else:
        v_iv = grid.vtracks.clip_indices(
            region[0].hull(Interval.spanning(source.v_idx, target.v_idx))
        )
        h_iv = grid.htracks.clip_indices(
            region[1].hull(Interval.spanning(source.h_idx, target.h_idx))
        )
    xs, ys = grid.vtracks.coords, grid.htracks.coords
    h_ok = lambda v, h: ref_h_ok(grid, v, h)
    v_ok = lambda v, h: ref_v_ok(grid, v, h)
    dist, parent, heap = {}, {}, []
    expanded = 0
    for direction, ok in ((0, h_ok), (1, v_ok)):
        if ok(source.v_idx, source.h_idx):
            state = (source.v_idx, source.h_idx, direction)
            dist[state] = 0.0
            parent[state] = None
            heapq.heappush(heap, (0.0, state))
    goal = None
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist.get(state, float("inf")):
            continue
        expanded += 1
        v, h, direction = state
        if v == target.v_idx and h == target.h_idx:
            goal = state
            break
        moves = []
        if direction == 0:
            for nv in (v - 1, v + 1):
                if v_iv.contains(nv) and h_ok(nv, h):
                    moves.append(((nv, h, 0), float(abs(xs[nv] - xs[v]))))
            if ref_corner(grid, v, h):
                moves.append(((v, h, 1), via_penalty))
        else:
            for nh in (h - 1, h + 1):
                if h_iv.contains(nh) and v_ok(v, nh):
                    moves.append(((v, nh, 1), float(abs(ys[nh] - ys[h]))))
            if ref_corner(grid, v, h):
                moves.append(((v, h, 0), via_penalty))
        for nstate, cost in moves:
            nd = d + cost
            if nd < dist.get(nstate, float("inf")):
                dist[nstate] = nd
                parent[nstate] = state
                heapq.heappush(heap, (nd, nstate))
    if goal is None:
        return None, None, expanded
    states = []
    cursor = goal
    while cursor is not None:
        states.append(cursor)
        cursor = parent[cursor]
    states.reverse()
    waypoints = [Point(xs[states[0][0]], ys[states[0][1]])]
    corners = []
    for prev, nxt in zip(states, states[1:]):
        if prev[2] != nxt[2]:
            corners.append((prev[0], prev[1]))
            point = Point(xs[prev[0]], ys[prev[1]])
            if point != waypoints[-1]:
                waypoints.append(point)
    end = Point(xs[goal[0]], ys[goal[1]])
    if end != waypoints[-1] or len(waypoints) == 1:
        waypoints.append(end)
    return waypoints, corners, expanded


# ----------------------------------------------------------------------
# Random instances
# ----------------------------------------------------------------------
@st.composite
def recipes(draw):
    """How to build a grid: shape, footprints, terminals, claims, region."""
    nv = draw(st.integers(4, 20))
    nh = draw(st.integers(4, 20))
    footprint = draw(st.sampled_from([(1, 0), (1, 0), (1, 0), (2, 0), (1, 1), (2, 1)]))
    foreign_fp = draw(st.sampled_from([(1, 0), (2, 0), (1, 1)]))
    source = GridTerminal(draw(st.integers(0, nv - 1)), draw(st.integers(0, nh - 1)))
    target = GridTerminal(draw(st.integers(0, nv - 1)), draw(st.integers(0, nh - 1)))
    ops = []
    for _ in range(draw(st.integers(0, 10))):
        x = draw(st.integers(0, (nv - 1) * 10))
        y = draw(st.integers(0, (nh - 1) * 10))
        # Mostly thin walls: they force detours, i.e. deeper searches.
        w, h = draw(st.sampled_from([(0, 60), (60, 0), (10, 10), (0, 120), (120, 0)]))
        blocks = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
        ops.append(("obstacle", Rect(x, y, x + w, y + h), blocks))
    for _ in range(draw(st.integers(0, 14))):
        net = draw(st.sampled_from([2, 3, NET]))
        vertical = draw(st.booleans())
        n_track, n_pos = (nv, nh) if vertical else (nh, nv)
        track = draw(st.integers(0, n_track - 1))
        a = draw(st.integers(0, n_pos - 1))
        b = min(n_pos - 1, a + draw(st.integers(0, n_pos // 2)))
        ops.append(("wire", net, vertical, track, a, b))
    for _ in range(draw(st.integers(0, 3))):
        ops.append((
            "corner", draw(st.sampled_from([2, NET])),
            draw(st.integers(0, nv - 1)), draw(st.integers(0, nh - 1)),
        ))
    # Scattered single-cell foreign claims at a drawn density: a maze
    # that makes paths turn often, so the entry caps and deep levels bite.
    density = draw(st.sampled_from([0.0, 0.1, 0.25, 0.4]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    for v in range(nv):
        for h in range(nh):
            if rng.random() < density:
                if rng.random() < 0.5:
                    ops.append(("wire", 2, True, v, h, h))
                else:
                    ops.append(("wire", 2, False, h, v, v))
    # Pinched pins of another net: no wire or corner of NET through them.
    keepouts = [
        (draw(st.integers(0, nv - 1)), draw(st.integers(0, nh - 1)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    region = None
    if draw(st.booleans()):
        v_lo = draw(st.integers(-2, nv))
        h_lo = draw(st.integers(-2, nh))
        region = (
            Interval(v_lo, v_lo + draw(st.integers(0, nv))),
            Interval(h_lo, h_lo + draw(st.integers(0, nh))),
        )
    return nv, nh, footprint, foreign_fp, source, target, ops, keepouts, region


def build(recipe, num_nets=None):
    """Replay a recipe onto a new grid whose owners hold ids up to ``num_nets``."""
    nv, nh, footprint, foreign_fp, source, target, ops, keepouts, region = recipe
    vt = TrackSet(range(0, nv * 10, 10))
    # Non-uniform h pitch, so Lee's straight-move costs differ by axis.
    ht = TrackSet([i * 10 + (3 if i % 3 == 1 else 0) for i in range(nh)])
    grid = RoutingGrid(vt, ht, num_nets)
    grid.set_net_footprint(NET, *footprint)
    grid.set_net_footprint(3, *foreign_fp)
    for term in (source, target):  # first, so later claims avoid them
        with contextlib.suppress(ValueError):
            grid.reserve_terminal(term.v_idx, term.h_idx, NET)
    # A conflicting op raises and is skipped.
    for op in ops:
        with contextlib.suppress(ValueError):
            if op[0] == "obstacle":
                _, rect, (bh, bv) = op
                grid.add_obstacle(rect, block_h=bh, block_v=bv)
            elif op[0] == "wire":
                _, net, vertical, track, a, b = op
                if vertical:
                    grid.occupy_v(track, a, b, net)
                else:
                    grid.occupy_h(track, a, b, net)
            else:
                _, net, v, h = op
                grid.occupy_corner(v, h, net)
    for v, h in keepouts:
        grid.add_keepout(v, h, 2)
    return grid, source, target, region


def instances():
    """A grid plus terminals and a region (int32 owners)."""
    return recipes().map(build)


def split_instance(wall: bool):
    """A fixed grid whose target is reachable, or walled off by a
    both-layer obstacle on v-track 3 (pins one verdict each)."""
    grid = RoutingGrid(TrackSet(range(0, 60, 10)), TrackSet(range(0, 60, 10)))
    source, target = GridTerminal(1, 1), GridTerminal(4, 4)
    for term in (source, target):
        grid.reserve_terminal(term.v_idx, term.h_idx, NET)
    if wall:
        grid.add_obstacle(Rect(30, 0, 30, 50))
    return grid, source, target, None


def edge_instance():
    """A wide footprint whose windows clamp at every grid edge, next to
    foreign wiring on the edge tracks and a keep-out in a corner."""
    grid = RoutingGrid(TrackSet(range(0, 50, 10)), TrackSet(range(0, 40, 10)))
    grid.set_net_footprint(NET, 2, 1)
    grid.occupy_h(3, 1, 2, 2)
    grid.occupy_v(0, 2, 3, 2)
    grid.add_keepout(4, 0, 2)
    return grid, GridTerminal(2, 1), GridTerminal(4, 3), None


def abort_then_idle_instance():
    """The vertical search aborts in its first level; the horizontal
    root's run is its entry alone, so its first level creates nothing
    (cap 1, max_nodes 3, max_depth 2: 5 nodes, not an abort there)."""
    grid = RoutingGrid(TrackSet(range(0, 60, 10)), TrackSet(range(0, 60, 10)))
    source, target = GridTerminal(2, 2), GridTerminal(5, 5)
    for term in (source, target):
        grid.reserve_terminal(term.v_idx, term.h_idx, NET)
    grid.occupy_h(2, 1, 1, 2)
    grid.occupy_h(2, 3, 3, 2)
    return grid, source, target, None


def mid_level_abort_instance():
    """Two walls force two corners; with max_nodes 10 the budget breaks
    in level 2 at the first frontier node's last child, after its
    target-track child and before the other four frontier nodes."""
    grid = RoutingGrid(TrackSet(range(0, 60, 10)), TrackSet(range(0, 60, 10)))
    source, target = GridTerminal(0, 0), GridTerminal(4, 4)
    for term in (source, target):
        grid.reserve_terminal(term.v_idx, term.h_idx, NET)
    grid.occupy_h(4, 2, 2, 2)
    grid.occupy_v(4, 2, 2, 2)
    return grid, source, target, None


def split_completion_instance():
    """Foreign wires on v1, h1 and h2 leave no one-corner path.  The
    vertical search's level 1 is h0, h1 and h3; in level 2, h0 and h3
    reach the target's track and h1's run stops short of it, so the
    completing nodes' parents are 0 and 2.  At cap 1, h0 takes every
    column it reaches first, and level 2 caps six columns."""
    grid = RoutingGrid(TrackSet(range(0, 80, 10)), TrackSet(range(0, 80, 10)))
    source, target = GridTerminal(1, 2), GridTerminal(6, 6)
    for term in (source, target):
        grid.reserve_terminal(term.v_idx, term.h_idx, NET)
    grid.occupy_v(1, 4, 4, 2)
    grid.occupy_h(2, 3, 3, 2)
    grid.occupy_h(1, 4, 4, 2)
    return grid, source, target, None


def serpentine_instance():
    """Five walls with gaps at alternate ends: the only paths weave up
    and down between them, so the cheapest one turns 10 times and the
    wave needs many rounds."""
    grid = RoutingGrid(TrackSet(range(0, 120, 10)), TrackSet(range(0, 120, 10)))
    source, target = GridTerminal(0, 0), GridTerminal(11, 0)
    for term in (source, target):
        grid.reserve_terminal(term.v_idx, term.h_idx, NET)
    for x in (20, 60, 100):
        grid.add_obstacle(Rect(x, 0, x, 90))  # gap at the top
    for x in (40, 80):
        grid.add_obstacle(Rect(x, 20, x, 110))  # gap at the bottom
    return grid, source, target, None


def walled_region_instance():
    """A wall cuts the bounded region in two; the target is reachable
    only around the wall's end, outside the region.  The wave fails
    after popping every state on the source's side."""
    grid = RoutingGrid(TrackSet(range(0, 100, 10)), TrackSet(range(0, 100, 10)))
    source, target = GridTerminal(1, 1), GridTerminal(4, 4)
    for term in (source, target):
        grid.reserve_terminal(term.v_idx, term.h_idx, NET)
    grid.add_obstacle(Rect(30, 0, 30, 50))
    return grid, source, target, (Interval(0, 5), Interval(0, 5))


def _tree(node: PSTNode):
    """A node's whole subtree as nested tuples (span included)."""
    return (
        node.kind, node.track, node.entry, node.depth, node.span,
        tuple(_tree(c) for c in node.children),
    )


FAST = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestMBFSEquivalence:
    @FAST
    @given(
        instances(),
        st.sampled_from([0, 1, 2, 8]),
        st.sampled_from([3, 12, 40, 120, 250_000]),
        st.sampled_from([0, 2, 12]),
    )
    @example(abort_then_idle_instance(), 1, 3, 2)
    @example(mid_level_abort_instance(), 1, 10, 12)
    # The budget breaks in level 2, the last that max_depth allows, at
    # the seventh of its eleven frontier nodes.
    @example(serpentine_instance(), 8, 18, 2)
    # The budget breaks in a completing level, just after its first
    # completing node: the abort wins.
    @example(split_completion_instance(), 1, 10, 12)
    # A completing level that is counted, not listed: its two leaves'
    # parents are not adjacent and the cap trims its other columns.
    @example(split_completion_instance(), 1, 250_000, 12)
    def test_matches_per_crossing_search(self, inst, cap, max_nodes, max_depth):
        grid, source, target, region = inst
        ref = ReferenceSearch(
            grid, source, target, region, max_depth, max_nodes, cap
        )
        roots, leaves, best = ref.run()
        res = MBFSearch(
            grid, NET, source, target, region=region, max_depth=max_depth,
            max_nodes=max_nodes, max_entries_per_track=cap,
        ).run()
        assert res.min_corners == best
        assert res.aborted == ref.aborted
        assert res.nodes_created == ref.nodes_created
        assert [leaf.track_sequence() for leaf in res.leaves] == [
            leaf.track_sequence() for leaf in leaves
        ]
        assert [_tree(r) for r in res.roots] == [_tree(r) for r in roots]


class TestLeeEquivalence:
    # 10 and 40 are the rescue's corner prices (objective "wire" and
    # "vias"); 0.5 and 1e9 are the extremes of an exact float sum.
    @FAST
    @given(instances(), st.sampled_from([0.5, 10.0, 40.0, 1e9]))
    @example(serpentine_instance(), 10.0)
    @example(serpentine_instance(), 1e9)
    @example(walled_region_instance(), 10.0)
    # An open grid: both L-shaped paths cost the same, so the target's
    # two states tie and the horizontal one must be the goal.
    @example(split_instance(wall=False), 10.0)
    def test_matches_per_probe_wave(self, inst, via_penalty):
        grid, source, target, region = inst
        want = reference_lee(grid, source, target, via_penalty, region)
        got = lee_search(
            grid, NET, source, target, via_penalty=via_penalty, region=region
        )
        assert got == want


class TestReachability:
    @FAST
    @given(instances(), st.lists(st.integers(0, 19), min_size=4, max_size=4))
    @example(edge_instance(), [0, 0, 19, 19])
    @example(edge_instance(), [1, 1, 2, 1])  # blocks clamp at the window edge
    def test_net_masks_match_per_cell_reads(self, inst, corners):
        grid = inst[0]
        nv, nh = grid.num_vtracks, grid.num_htracks
        v_lo, h_lo = corners[0] % nv, corners[1] % nh
        v_iv = Interval(v_lo, v_lo + corners[2] % (nv - v_lo))
        h_iv = Interval(h_lo, h_lo + corners[3] % (nh - h_lo))
        whole = (Interval(0, nv - 1), Interval(0, nh - 1))
        for (vs, hs), masks in (
            (whole, grid.net_masks(NET)),
            ((v_iv, h_iv), grid.window_masks(NET, v_iv, h_iv)),
        ):
            usable_h, usable_v, corner = masks
            assert usable_h.shape == corner.shape == (hs.count, vs.count)
            assert usable_v.shape == (vs.count, hs.count)
            for v in range(vs.lo, vs.hi + 1):
                for h in range(hs.lo, hs.hi + 1):
                    i, j = v - vs.lo, h - hs.lo
                    assert usable_h[j, i] == ref_h_ok(grid, v, h)
                    assert usable_v[i, j] == ref_v_ok(grid, v, h)
                    assert corner[j, i] == ref_corner(grid, v, h)

    @FAST
    @given(instances())
    @example(split_instance(wall=False))
    @example(split_instance(wall=True))
    def test_flood_agrees_with_whole_grid_lee(self, inst):
        grid, source, target, _ = inst
        found = reference_lee(grid, source, target, 10.0, None)[0] is not None
        assert grid.reachable(
            NET, (source.v_idx, source.h_idx), (target.v_idx, target.h_idx)
        ) == found


class TestOwnerWidth:
    """A grid read the same at int8 owners as at int32 owners."""

    @FAST
    @given(recipes(), st.data())
    def test_narrow_owners_read_the_same(self, recipe, data):
        wide, source, target, region = build(recipe)
        narrow = build(recipe, num_nets=3)[0]
        assert narrow.snapshot().h_owner.dtype == np.int8
        assert wide.snapshot().h_owner.dtype == np.int32
        for vertical, n_track, n_pos in (
            (True, wide.num_vtracks, wide.num_htracks),
            (False, wide.num_htracks, wide.num_vtracks),
        ):
            for track in range(n_track):
                lo = data.draw(st.integers(0, n_pos - 1))
                hi = data.draw(st.integers(lo, n_pos - 1))
                for a, b in ((0, n_pos - 1), (lo, hi)):
                    one, span = Interval(track, track), Interval(a, b)
                    window = (one, span) if vertical else (span, one)
                    for got, want in zip(
                        narrow.window_masks(NET, *window), wide.window_masks(NET, *window)
                    ):
                        assert np.array_equal(got, want)
        for got, want in zip(narrow.net_masks(NET), wide.net_masks(NET)):
            assert np.array_equal(got, want)
        ends = (source.v_idx, source.h_idx), (target.v_idx, target.h_idx)
        assert narrow.reachable(NET, *ends) == wide.reachable(NET, *ends)
        searches = [
            MBFSearch(grid, NET, source, target, region=region).run()
            for grid in (narrow, wide)
        ]
        got, want = searches
        assert (got.min_corners, got.aborted, got.nodes_created) == (
            want.min_corners, want.aborted, want.nodes_created
        )
        assert [_tree(r) for r in got.roots] == [_tree(r) for r in want.roots]
        assert [leaf.track_sequence() for leaf in got.leaves] == [
            leaf.track_sequence() for leaf in want.leaves
        ]
        lee = [
            lee_search(grid, NET, source, target, via_penalty=10.0, region=region)
            for grid in (narrow, wide)
        ]
        assert lee[0][:2] == lee[1][:2]
        assert lee[0][2] == lee[1][2]


class TestTrackBits:
    """One track's cells of :meth:`RoutingGrid.window_masks` (a 1-wide
    window) against the per-cell reads."""

    @settings(max_examples=80, deadline=None)
    @given(instances(), st.data())
    def test_rows_match_per_cell_queries(self, inst, data):
        grid, _, _, _ = inst
        nv, nh = grid.num_vtracks, grid.num_htracks
        whole_corner = grid.net_masks(NET)[2]
        for v in range(nv):
            lo = data.draw(st.integers(0, nh - 1))
            hi = data.draw(st.integers(lo, nh - 1))
            usable, corner = track_cells(grid, True, v, lo, hi, NET)
            assert usable == [
                h for h in range(lo, hi + 1) if ref_v_ok(grid, v, h)
            ]
            assert corner == [
                h for h in range(lo, hi + 1) if ref_corner(grid, v, h)
            ]
            assert [h for h in range(lo, hi + 1) if whole_corner[h, v]] == corner
            h = data.draw(st.integers(0, nh - 1))
            assert run_through(grid, True, v, h, NET) == _scan_span(
                partial(ref_v_ok, grid, v), h, 0, nh - 1
            )
            assert grid.corner_free(v, h, NET) == ref_corner(grid, v, h)
        for h in range(nh):
            lo = data.draw(st.integers(0, nv - 1))
            hi = data.draw(st.integers(lo, nv - 1))
            usable, corner = track_cells(grid, False, h, lo, hi, NET)
            assert usable == [
                v for v in range(lo, hi + 1) if ref_h_ok(grid, v, h)
            ]
            assert corner == [
                v for v in range(lo, hi + 1) if ref_corner(grid, v, h)
            ]
            assert span_usable(grid, False, h, lo, hi, NET) == all(
                ref_h_ok(grid, v, h) for v in range(lo, hi + 1)
            )
            within = Interval(lo, hi)
            v = data.draw(st.integers(0, nv - 1))
            assert run_through(grid, False, h, v, NET, within=within) == _scan_span(
                partial(ref_h_ok, grid, h=h), v, lo, hi
            )

    def test_every_window_of_the_edge_instance(self):
        # Corner blocks of interior windows reach past [lo, hi] and clamp
        # at the grid edge, as the whole-grid read does.
        grid = edge_instance()[0]
        nv, nh = grid.num_vtracks, grid.num_htracks
        for vertical, n_track, n_pos in ((True, nv, nh), (False, nh, nv)):
            for track in range(n_track):
                cell = (lambda p: (track, p)) if vertical else (lambda p: (p, track))
                wire_ok = ref_v_ok if vertical else ref_h_ok
                for lo in range(n_pos):
                    for hi in range(lo, n_pos):
                        usable, corner = track_cells(grid, vertical, track, lo, hi, NET)
                        window = range(lo, hi + 1)
                        assert usable == [
                            p for p in window if wire_ok(grid, *cell(p))
                        ]
                        assert corner == [
                            p for p in window if ref_corner(grid, *cell(p))
                        ]
        for v in range(nv):
            for h in range(nh):
                assert grid.corner_free(v, h, NET) == ref_corner(grid, v, h)

    def test_indices_validated_per_row(self):
        grid = RoutingGrid(TrackSet(range(0, 50, 10)), TrackSet(range(0, 40, 10)))
        for call in (
            lambda: grid.reachable(NET, (-1, 0), (1, 1)),
            lambda: grid.reachable(NET, (1, 1), (1, 4)),
            lambda: grid.window_masks(NET, Interval(0, 5), Interval(0, 3)),
            lambda: grid.window_masks(NET, Interval(-1, 2), Interval(0, 3)),
        ):
            with pytest.raises(IndexError):
                call()

    def test_terminals_validated_once_per_search(self):
        grid = RoutingGrid(TrackSet(range(0, 50, 10)), TrackSet(range(0, 40, 10)))
        good, bad = GridTerminal(1, 1), GridTerminal(-1, 2)
        with pytest.raises(IndexError):
            lee_search(grid, NET, good, bad)
        with pytest.raises(IndexError):
            lee_search(grid, NET, bad, good)
        with pytest.raises(IndexError):
            MBFSearch(grid, NET, good, GridTerminal(1, 4))
        with pytest.raises(IndexError):
            MBFSearch(grid, NET, bad, good)
