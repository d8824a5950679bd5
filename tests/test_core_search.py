"""Tests for the modified breadth-first search and Path Selection Trees.

These encode the paper's Figure 1 / Figure 2 semantics: corner
accounting (``(v2,h4,v6)`` is a one-corner path), the one-visit-per-
track rule with target-vertex exemption, duplicate same-level tree
nodes, and bounded-region behaviour.  A Lee/Dijkstra corner oracle
verifies minimum-corner optimality on randomized instances.
"""

import contextlib
import random

import pytest

from repro.geometry import Interval, Point, Rect
from repro.grid import TrackSet
from repro.core.search import MBFSearch, candidate_paths
from repro.core.tig import TrackIntersectionGraph
from repro.maze.lee import lee_search

from conftest import make_figure1_instance


def fresh_tig(nv=6, nh=5):
    return TrackIntersectionGraph(
        TrackSet(range(0, nv * 10, 10)), TrackSet(range(0, nh * 10, 10))
    )


def run_search(tig, net_id, **kw):
    a, b = tig.terminals_of(net_id)
    return MBFSearch(tig.grid, net_id, a, b, **kw).run()


class TestCornerAccounting:
    def test_straight_vertical_zero_corners(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(20, 0), Point(20, 40)])
        res = run_search(tig, 1)
        assert res.min_corners == 0

    def test_straight_horizontal_zero_corners(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        res = run_search(tig, 1)
        assert res.min_corners == 0

    def test_l_connection_one_corner(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        assert res.min_corners == 1
        # Both L orientations exist on an empty grid.
        assert len(res.leaves) == 2

    def test_figure1_path_sequence(self):
        """The paper's worked example: net B routes as (v2, h4, v6)."""
        tig, nets = make_figure1_instance()
        net_id, (a, b) = nets["B"]
        res = MBFSearch(tig.grid, net_id, a, b).run()
        assert res.min_corners == 1
        sequences = {tuple(leaf.track_sequence()) for leaf in res.leaves}
        # One of the minimum-corner leaves is the v2-then-h4 path.
        assert ("v2", "h4") in sequences

    def test_blocked_l_needs_two_corners(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        # Block both L corners for net 1.
        tig.add_obstacle(Rect(40, 10, 40, 10))
        tig.add_obstacle(Rect(10, 30, 10, 30))
        res = run_search(tig, 1)
        assert res.min_corners == 2


class TestPathGeometry:
    def test_candidates_connect_terminals(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        batch = candidate_paths(res, tig.grid)
        for i in range(len(batch)):
            points, _ = batch.geometry(i)
            assert points[0] == Point(10, 10)
            assert points[-1] == Point(40, 30)
            for p, q in zip(points, points[1:]):
                assert p.is_aligned_with(q)

    def test_candidate_corner_count_matches_depth(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        batch = candidate_paths(res, tig.grid)
        for i in range(len(batch)):
            assert len(batch.geometry(i)[1]) == res.min_corners

    def test_candidate_length_is_point_sum(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 0), Point(50, 40)])
        res = run_search(tig, 1)
        batch = candidate_paths(res, tig.grid)
        for i in range(len(batch)):
            points, _ = batch.geometry(i)
            total = sum(a.manhattan_to(b) for a, b in zip(points, points[1:]))
            assert batch.lengths[i] == total
            assert batch.lengths[i] >= Point(0, 0).manhattan_to(Point(50, 40))


class TestObstaclesAndOccupancy:
    def test_obstacle_avoided(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.add_obstacle(Rect(20, 20, 30, 20))  # blocks the straight shot
        res = run_search(tig, 1)
        assert res.found
        assert res.min_corners == 2

    def test_foreign_wire_blocks_span(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.grid.occupy_h(2, 2, 3, net_id=9)  # net 9 trunk on h3
        res = run_search(tig, 1)
        assert res.found
        assert res.min_corners == 2

    def test_own_wire_is_usable_space(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.grid.occupy_h(2, 2, 3, net_id=1)  # net 1's own trunk
        res = run_search(tig, 1)
        assert res.min_corners == 0

    def test_crossing_foreign_vertical_is_free(self):
        """Different-layer crossings do not block (reserved-layer model)."""
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.grid.occupy_v(3, 0, 4, net_id=9)  # full-height foreign vertical
        res = run_search(tig, 1)
        assert res.min_corners == 0

    def test_fully_walled_terminal_fails(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(20, 20), Point(50, 40)])
        # Wall in (20,20) on all four sides (terminal itself stays).
        tig.add_obstacle(Rect(10, 10, 30, 10))  # below
        tig.add_obstacle(Rect(10, 30, 30, 30))  # above
        tig.add_obstacle(Rect(10, 20, 10, 20))  # left
        tig.add_obstacle(Rect(30, 20, 30, 20))  # right
        res = run_search(tig, 1)
        assert not res.found


class TestSearchRegion:
    def test_region_limits_solution(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 20), Point(50, 20)])
        tig.add_obstacle(Rect(20, 20, 30, 20))
        # Tight region around the terminals' rows: the 2-corner detour
        # through other rows is outside, so the search fails.
        region = (Interval(0, 5), Interval(2, 2))
        res = MBFSearch(
            tig.grid, 1, *tig.terminals_of(1), region=region
        ).run()
        assert not res.found

    def test_region_expanded_to_contain_terminals(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(0, 0), Point(50, 40)])
        # A region not containing the terminals is silently hulled.
        region = (Interval(2, 3), Interval(2, 3))
        res = MBFSearch(tig.grid, 1, *tig.terminals_of(1), region=region).run()
        assert res.found

    def test_max_depth_zero_blocks_corners(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = MBFSearch(tig.grid, 1, *tig.terminals_of(1), max_depth=0).run()
        assert not res.found


class TestPSTStructure:
    def test_duplicate_same_level_nodes_allowed(self):
        """Figure 2: the same vertex may appear twice in one tree."""
        tig, nets = make_figure1_instance()
        net_id, (a, b) = nets["B"]
        res = MBFSearch(tig.grid, net_id, a, b).run()
        # Collect names per depth across both trees.
        for root in res.roots:
            stack = [root]
            while stack:
                node = stack.pop()
                for child in node.children:
                    assert child.parent is node
                    assert child.depth == node.depth + 1
                    assert child.kind != node.kind  # alternation
                stack.extend(node.children)

    def test_two_roots_one_per_terminal_track(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        kinds = {r.kind for r in res.roots}
        assert kinds == {"V", "H"}

    def test_chain_and_sequence(self):
        tig = fresh_tig()
        tig.register_net(1, [Point(10, 10), Point(40, 30)])
        res = run_search(tig, 1)
        leaf = res.leaves[0]
        chain = leaf.chain()
        assert chain[0].parent is None
        assert chain[-1] is leaf
        assert len(leaf.track_sequence()) == leaf.depth + 1


class TestMinCornerOptimality:
    """MBFS corner counts vs an exhaustive Lee corner oracle."""

    def oracle_corners(self, grid, net_id, a, b):
        # Huge via penalty makes Dijkstra lexicographically minimise
        # corner count before length.
        waypoints, corners, _ = lee_search(
            grid, net_id, a, b, via_penalty=10**9
        )
        if waypoints is None:
            return None
        return len(corners)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_on_random_obstacles(self, seed):
        rng = random.Random(seed)
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(0, 0), Point(70, 70)])
        for _ in range(6):
            x = rng.randrange(1, 7) * 10
            y = rng.randrange(1, 7) * 10
            with contextlib.suppress(ValueError):
                tig.add_obstacle(Rect(x, y, x + 10, y + 10))
        a, b = tig.terminals_of(1)
        res = MBFSearch(tig.grid, 1, a, b).run()
        oracle = self.oracle_corners(tig.grid, 1, a, b)
        if oracle is None:
            assert not res.found
        elif res.found:
            assert res.min_corners == oracle
        # (MBFS may legitimately fail where the oracle succeeds: the
        # one-corner-per-track rule trades completeness for speed.)

    @pytest.mark.parametrize("seed", range(8))
    def test_committed_paths_stay_legal(self, seed):
        """Route several nets serially; every claimed cell must verify."""
        rng = random.Random(100 + seed)
        tig = fresh_tig(10, 10)
        pts = [Point(x * 10, y * 10) for x in range(10) for y in range(10)]
        rng.shuffle(pts)
        terms = {}
        for net_id in range(1, 6):
            pair = [pts.pop(), pts.pop()]
            terms[net_id] = tig.register_net(net_id, pair)
        for net_id, (a, b) in terms.items():
            res = MBFSearch(tig.grid, net_id, a, b).run()
            if not res.found:
                continue
            points, corners = candidate_paths(res, tig.grid).geometry(0)
            tig.grid.commit_path(net_id, points, corners)
        # Invariant: every slot owner is a registered net or FREE.
        assert set(tig.grid.owners()) <= set(terms)
