"""Tests for the Lee/Dijkstra maze baseline."""

import math

import pytest

from repro.core.cancel import deadline
from repro.geometry import Point, Rect, Interval
from repro.grid import TrackSet
from repro.core.tig import TrackIntersectionGraph
from repro.maze import MazeRouter, lee_search

from conftest import make_toy_design


def make_tig(n=8):
    ts = TrackSet(range(0, n * 10, 10))
    return TrackIntersectionGraph(ts, TrackSet(range(0, n * 10, 10)))


class TestLeeSearch:
    def test_straight_connection(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        waypoints, corners, expanded = lee_search(tig.grid, 1, a, b)
        assert waypoints == [Point(0, 30), Point(70, 30)]
        assert corners == []
        assert expanded > 0

    def test_l_connection(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 0), Point(50, 40)])
        waypoints, corners, _ = lee_search(tig.grid, 1, a, b)
        assert waypoints[0] == Point(0, 0)
        assert waypoints[-1] == Point(50, 40)
        assert len(corners) == 1

    def test_length_optimal_on_empty_grid(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 0), Point(50, 40)])
        waypoints, _, _ = lee_search(tig.grid, 1, a, b, via_penalty=0.0)
        length = sum(p.manhattan_to(q) for p, q in zip(waypoints, waypoints[1:]))
        assert length == 90  # Manhattan distance

    def test_detours_around_obstacle(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        tig.add_obstacle(Rect(30, 0, 40, 60))  # wall with a gap at top
        waypoints, corners, _ = lee_search(tig.grid, 1, a, b)
        assert waypoints is not None
        length = sum(p.manhattan_to(q) for p, q in zip(waypoints, waypoints[1:]))
        assert length > 70  # forced detour

    def test_unroutable_returns_none(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        tig.add_obstacle(Rect(30, 0, 40, 70))  # full wall
        waypoints, corners, expanded = lee_search(tig.grid, 1, a, b)
        assert waypoints is None and corners is None
        assert expanded > 0

    def test_region_restricts(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        tig.add_obstacle(Rect(30, 30, 40, 30))
        region = (Interval(0, 7), Interval(3, 3))  # single row
        waypoints, _, _ = lee_search(tig.grid, 1, a, b, region=region)
        assert waypoints is None

    def test_high_via_penalty_prefers_fewer_corners(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 0), Point(50, 40)])
        _, corners_cheap, _ = lee_search(tig.grid, 1, a, b, via_penalty=0.001)
        _, corners_dear, _ = lee_search(tig.grid, 1, a, b, via_penalty=10**6)
        assert len(corners_dear) <= len(corners_cheap)
        assert len(corners_dear) == 1

    def test_respects_foreign_wires(self):
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 30), Point(70, 30)])
        tig.grid.occupy_h(3, 1, 6, net_id=5)
        waypoints, corners, _ = lee_search(tig.grid, 1, a, b)
        assert waypoints is not None
        assert len(corners) >= 2  # must leave the blocked row

    @pytest.mark.parametrize("penalty", [-1.0, -math.inf, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_via_penalty(self, penalty):
        # Unchecked, -1.0 lowers a state's distance at every turn and the
        # wave never ends, -inf makes two states each other's parent, and
        # NaN and +inf find no path where an L exists.  The deadline turns
        # an endless wave into a failure; the parent walk has no checkpoint.
        tig = make_tig(10)
        a, b = tig.register_net(1, [Point(0, 0), Point(90, 90)])
        with deadline(5.0), pytest.raises(ValueError, match=repr(penalty)):
            lee_search(tig.grid, 1, a, b, via_penalty=penalty)


class TestMazeRouter:
    def test_routes_toy_design(self):
        design = make_toy_design()
        router = MazeRouter(Rect(0, 0, 256, 256), list(design.nets.values()))
        result = router.route()
        assert result.completion_rate == 1.0
        assert result.total_wire_length > 0

    def test_same_model_as_levelb(self):
        """Maze and MBFS routers produce comparable wire lengths."""
        from repro.core import LevelBRouter

        design = make_toy_design()
        maze = MazeRouter(Rect(0, 0, 256, 256), list(design.nets.values())).route()
        design2 = make_toy_design()
        mbfs = LevelBRouter(Rect(0, 0, 256, 256), list(design2.nets.values())).route()
        assert maze.completion_rate == mbfs.completion_rate == 1.0
        # Both should be within 2x of each other on this easy instance.
        assert maze.total_wire_length < 2 * mbfs.total_wire_length
        assert mbfs.total_wire_length < 2 * maze.total_wire_length

    def test_vias_objective_prices_primary_lee_corners(self, monkeypatch):
        """One Lee via price: under objective="vias" the primary engine
        pays the same scaled ``MAZE_VIA_PENALTY`` as the rescue."""
        from repro.core import router as router_module
        from repro.core.router import MAZE_VIA_PENALTY, VIA_OBJECTIVE_SCALE

        price = VIA_OBJECTIVE_SCALE * MAZE_VIA_PENALTY
        bounds = Rect(0, 0, 256, 256)
        router = MazeRouter(
            bounds, list(make_toy_design().nets.values()), objective="vias"
        )
        assert router._engine.via_penalty == price
        vias = router.route()
        monkeypatch.setattr(router_module, "MAZE_VIA_PENALTY", price)
        priced = MazeRouter(bounds, list(make_toy_design().nets.values())).route()
        # The dearer corner trades wire for corners against the
        # objective="wire" run's 1340 / 14 (test_toy_maze_parity).
        assert (vias.total_wire_length, vias.total_corners) == (1296, 13)
        assert (priced.total_wire_length, priced.total_corners) == (1296, 13)
