"""Tests for backtracking path selection over the PST candidates."""

import pytest

from repro.geometry import Point
from repro.grid import RoutingGrid, TrackSet
from repro.core.cost import CornerCostEvaluator, CostWeights
from repro.core.search import (
    CandidateBatch,
    CandidatePath,
    MBFSearch,
    PSTNode,
    candidate_paths,
)
from repro.core.select import select_best_path
from repro.core.tig import TrackIntersectionGraph


def make_grid(n=9):
    ts = TrackSet(range(0, n * 10, 10))
    return RoutingGrid(ts, TrackSet(range(0, n * 10, 10)))


def dummy_leaf():
    from repro.geometry import Interval

    return PSTNode("V", 0, 0, Interval(0, 1), None, 0)


def cand(points, corners):
    length = sum(a.manhattan_to(b) for a, b in zip(points, points[1:]))
    return CandidatePath(points=points, corners=corners, length=length,
                         leaf=dummy_leaf())


class TestSelectBestPath:
    def test_empty_returns_none(self):
        ev = CornerCostEvaluator(make_grid(), CostWeights())
        best, cost = select_best_path([], ev)
        assert best is None
        assert cost == float("inf")

    def test_single_candidate(self):
        ev = CornerCostEvaluator(make_grid(), CostWeights())
        c = cand([Point(0, 0), Point(10, 0)], [])
        best, cost = select_best_path([c], ev)
        assert best is c
        assert cost == 10.0

    def test_shorter_wins_on_clean_grid(self):
        ev = CornerCostEvaluator(make_grid(), CostWeights())
        short = cand([Point(0, 0), Point(10, 0)], [])
        long = cand([Point(0, 0), Point(40, 0)], [])
        best, _ = select_best_path([long, short], ev)
        assert best is short

    def test_congestion_flips_choice(self):
        """Equal-length candidates: the one cornering in traffic loses."""
        grid = make_grid()
        grid.occupy_h(2, 0, 5, net_id=9)
        grid.occupy_h(3, 0, 5, net_id=9)
        ev = CornerCostEvaluator(grid, CostWeights())
        crowded = cand(
            [Point(0, 0), Point(20, 0), Point(20, 20), Point(40, 20)],
            [(2, 0), (2, 2)],
        )
        open_path = cand(
            [Point(0, 0), Point(40, 0), Point(40, 20)],
            [(8, 8)],
        )
        # Same length (40+20 = 60 each).
        assert crowded.length == open_path.length == 60
        best, _ = select_best_path([crowded, open_path], ev)
        assert best is open_path

    def test_length_dominates_when_corner_weights_zero(self):
        grid = make_grid()
        grid.occupy_h(2, 0, 8, net_id=9)
        ev = CornerCostEvaluator(grid, CostWeights.length_only())
        near_traffic = cand([Point(0, 0), Point(10, 0), Point(10, 10)], [(1, 0)])
        detour = cand([Point(0, 0), Point(0, 80), Point(10, 80), Point(10, 10)],
                      [(0, 8), (1, 8)])
        best, _ = select_best_path([detour, near_traffic], ev)
        assert best is near_traffic

    def test_deterministic_on_reordered_input(self):
        ev = CornerCostEvaluator(make_grid(), CostWeights())
        a = cand([Point(0, 0), Point(10, 0), Point(10, 10)], [(1, 0)])
        b = cand([Point(0, 0), Point(0, 10), Point(10, 10)], [(0, 1)])
        best1, _ = select_best_path([a, b], ev)
        best2, _ = select_best_path([b, a], ev)
        assert best1.points == best2.points


class TestEndToEndSelection:
    def test_selected_among_search_candidates(self):
        tig = TrackIntersectionGraph(
            TrackSet(range(0, 90, 10)), TrackSet(range(0, 90, 10))
        )
        terms = tig.register_net(1, [Point(0, 0), Point(80, 80)])
        res = MBFSearch(tig.grid, 1, *terms).run()
        cands = candidate_paths(res, tig.grid)
        ev = CornerCostEvaluator(tig.grid, CostWeights())
        best, cost = select_best_path(cands, ev)
        assert best in cands
        assert cost >= best.length  # corner terms are non-negative

    def test_batch_is_a_sequence_of_candidates(self):
        tig = TrackIntersectionGraph(
            TrackSet(range(0, 90, 10)), TrackSet(range(0, 90, 10))
        )
        terms = tig.register_net(1, [Point(0, 0), Point(80, 80)])
        res = MBFSearch(tig.grid, 1, *terms).run()
        batch = candidate_paths(res, tig.grid)
        assert len(batch) == len(res.leaves) == 2
        items = list(batch)
        assert [c.points for c in batch[:]] == [c.points for c in items]
        assert batch[-1].corners == items[1].corners
        # Built one at a time, the leaves are the objects res.leaves holds.
        assert all(c.leaf is leaf for c, leaf in zip(items, res.leaves))
        assert batch.geometry(0) == (items[0].points, items[0].corners)
        with pytest.raises(IndexError):
            batch[2]

    def test_hand_built_list_walks_as_a_batch(self):
        a = cand([Point(0, 0), Point(10, 0), Point(10, 10)], [(1, 0)])
        b = cand([Point(0, 0), Point(0, 10), Point(10, 10)], [(0, 1)])
        batch = CandidateBatch.of([a, b])
        assert batch[0] is a and batch[1] is b
        assert batch.order.tolist() == [1, 0]  # (length, first point) order
        assert batch.starts.tolist() == [0, 1, 2]
