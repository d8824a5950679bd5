"""Tests for backtracking path selection over the PST candidates."""

import numpy as np
import pytest

from repro.geometry import Point
from repro.grid import RoutingGrid, TrackSet
from repro.core.cost import CornerCostEvaluator, CostWeights
from repro.core.search import CandidateBatch, MBFSearch, candidate_paths
from repro.core.select import select_best_path
from repro.core.tig import TrackIntersectionGraph


def make_grid(n=9):
    ts = TrackSet(range(0, n * 10, 10))
    return RoutingGrid(ts, TrackSet(range(0, n * 10, 10)))


def make_batch(*paths):
    """A batch over hand-built ``(points, corners)`` pairs, in their order.

    Every pair has the same corner count, as every batch of a search does.
    """
    depth = len(paths[0][1]) if paths else 0
    assert all(len(corners) == depth for _, corners in paths)
    lengths = [
        sum(a.manhattan_to(b) for a, b in zip(points, points[1:]))
        for points, _ in paths
    ]
    order = sorted(range(len(paths)), key=lambda i: (lengths[i], paths[i][0][1:2]))
    corners = [c for _, cs in paths for c in cs]
    return CandidateBatch(
        np.array([v for v, _ in corners], dtype=np.intp),
        np.array([h for _, h in corners], dtype=np.intp),
        depth,
        np.array(lengths, dtype=np.int64),
        np.array(order, dtype=np.intp),
        lambda i: paths[i],
    )


class TestSelectBestPath:
    def test_empty_returns_none(self):
        ev = CornerCostEvaluator(make_grid(), CostWeights())
        best, cost = select_best_path(make_batch(), ev)
        assert best is None
        assert cost == float("inf")

    def test_single_candidate(self):
        ev = CornerCostEvaluator(make_grid(), CostWeights())
        c = ([Point(0, 0), Point(10, 0)], [])
        best, cost = select_best_path(make_batch(c), ev)
        assert best == 0
        assert cost == 10.0

    def test_shorter_wins_on_clean_grid(self):
        ev = CornerCostEvaluator(make_grid(), CostWeights())
        short = ([Point(0, 0), Point(10, 0)], [])
        long = ([Point(0, 0), Point(40, 0)], [])
        best, _ = select_best_path(make_batch(long, short), ev)
        assert best == 1

    def test_congestion_flips_choice(self):
        """Equal-length candidates: the one cornering in traffic loses."""
        grid = make_grid()
        grid.occupy_h(5, 0, 3, net_id=9)
        grid.occupy_h(7, 0, 3, net_id=9)
        ev = CornerCostEvaluator(grid, CostWeights())
        crowded = ([Point(0, 0), Point(0, 60), Point(60, 60)], [(0, 6)])
        open_path = ([Point(0, 0), Point(60, 0), Point(60, 60)], [(6, 0)])
        cands = make_batch(crowded, open_path)
        # Same length (60+60 = 120 each).
        assert cands.lengths.tolist() == [120, 120]
        best, _ = select_best_path(cands, ev)
        assert best == 1

    def test_length_dominates_when_corner_weights_zero(self):
        grid = make_grid()
        grid.occupy_h(2, 0, 8, net_id=9)
        ev = CornerCostEvaluator(grid, CostWeights.length_only())
        near_traffic = (
            [Point(0, 0), Point(0, 10), Point(10, 10), Point(10, 20)],
            [(0, 1), (1, 1)],
        )
        detour = (
            [Point(0, 0), Point(0, 80), Point(10, 80), Point(10, 20)],
            [(0, 8), (1, 8)],
        )
        cands = make_batch(detour, near_traffic)
        assert cands.lengths.tolist() == [150, 30]
        best, _ = select_best_path(cands, ev)
        assert best == 1

    def test_deterministic_on_reordered_input(self):
        ev = CornerCostEvaluator(make_grid(), CostWeights())
        a = ([Point(0, 0), Point(10, 0), Point(10, 10)], [(1, 0)])
        b = ([Point(0, 0), Point(0, 10), Point(10, 10)], [(0, 1)])
        best1, _ = select_best_path(make_batch(a, b), ev)
        best2, _ = select_best_path(make_batch(b, a), ev)
        assert (a, b)[best1][0] == (b, a)[best2][0]


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
        assert 0 <= best < len(cands)
        assert cost >= cands.lengths[best]  # corner terms are non-negative

    def test_batch_is_a_sequence_of_candidates(self):
        tig = TrackIntersectionGraph(
            TrackSet(range(0, 90, 10)), TrackSet(range(0, 90, 10))
        )
        terms = tig.register_net(1, [Point(80, 0), Point(0, 80)])
        res = MBFSearch(tig.grid, 1, *terms).run()
        batch = candidate_paths(res, tig.grid)
        assert len(batch) == len(res.leaves) == 2
        assert batch.depth == res.min_corners == 1
        # Both are 160 long; the horizontal root's leaf turns first at x = 0.
        assert [leaf.kind for leaf in res.leaves] == ["H", "V"]
        assert batch.order.tolist() == [1, 0]
        # Candidate i is its slice of the corner arrays, in leaf order.
        assert batch.geometry(0) == (
            [Point(80, 0), Point(80, 80), Point(0, 80)], [(8, 8)]
        )
        assert batch.geometry(1) == (
            [Point(80, 0), Point(0, 0), Point(0, 80)], [(0, 0)]
        )
        for i in range(len(batch)):
            points, corners = batch.geometry(i)
            lo, hi = i * batch.depth, (i + 1) * batch.depth
            assert corners == list(zip(batch.v[lo:hi].tolist(),
                                       batch.h[lo:hi].tolist()))
            assert batch.lengths[i] == sum(
                a.manhattan_to(b) for a, b in zip(points, points[1:])
            )
        with pytest.raises(IndexError):
            batch.geometry(2)

    def test_hand_built_list_walks_as_a_batch(self):
        """The search's candidates, rebuilt from a list, walk the same."""
        winners = []
        for traffic in (False, True):
            tig = TrackIntersectionGraph(
                TrackSet(range(0, 90, 10)), TrackSet(range(0, 90, 10))
            )
            if traffic:  # crowd the corner at (0, 0)
                tig.grid.occupy_h(1, 0, 3, net_id=9)
                tig.grid.occupy_h(2, 0, 3, net_id=9)
            terms = tig.register_net(1, [Point(80, 0), Point(0, 80)])
            res = MBFSearch(tig.grid, 1, *terms).run()
            batch = candidate_paths(res, tig.grid)
            hand = make_batch(*[batch.geometry(i) for i in range(len(batch))])
            for name in ("v", "h", "lengths", "order"):
                assert getattr(hand, name).tolist() == \
                    getattr(batch, name).tolist()
            assert hand.depth == batch.depth
            ev = CornerCostEvaluator(tig.grid, CostWeights())
            best = select_best_path(batch, ev)
            assert select_best_path(hand, ev) == best
            winners.append(best)
        # On a clean grid the tie goes to the first in walk order; traffic
        # at (0, 0) hands the connection to the corner at (8, 8).
        assert winners == [(1, 160.0), (0, 160.0)]
