"""Tests for the Lee/Dijkstra maze baseline."""

import math
from pathlib import Path

import pytest

from repro.bench_suite import section3_workload
from repro.core import LevelBConfig, LevelBRouter
from repro.core.cancel import deadline
from repro.geometry import Point, Rect, Interval
from repro.grid import TrackSet
from repro.core.tig import TrackIntersectionGraph
from repro.io import canonical_json, flow_result_to_dict
from repro.maze import MazeRouter, lee_search

from conftest import make_toy_design
from counter_golden import routed

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


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
        waypoints, _, _ = lee_search(tig.grid, 1, a, b, via_penalty=0.5)
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

    def test_outputs_are_python_ints(self):
        # numpy scalars would leak into counters and served results,
        # which JSON cannot encode.  The L has ties at the goal's
        # distance, so the tie count runs too.
        tig = make_tig()
        a, b = tig.register_net(1, [Point(0, 0), Point(50, 40)])
        waypoints, corners, expanded = lee_search(tig.grid, 1, a, b)
        assert waypoints is not None and corners
        assert type(expanded) is int
        for corner in corners:
            assert type(corner) is tuple and [type(i) for i in corner] == [int, int]
        tig.add_obstacle(Rect(30, 0, 30, 70))  # a full wall
        waypoints, corners, expanded = lee_search(tig.grid, 1, a, b)
        assert waypoints is None and corners is None
        assert type(expanded) is int and expanded > 0

    def test_rescued_flow_result_encodes_as_json(self):
        result = routed("ex3")  # cached: the counter golden routes it too
        assert result.profile["counters"]["maze.nodes_expanded"] == 77232
        canonical_json(flow_result_to_dict(result))

    @pytest.mark.parametrize("penalty", [-1.0, -math.inf, math.nan, math.inf, 0.0])
    def test_rejects_negative_or_non_finite_via_penalty(self, penalty):
        # Unchecked, -1.0 lowers a state's distance at every turn and the
        # wave never ends, -inf makes two states each other's parent, and
        # NaN and +inf find no path where an L exists.  A zero-cost turn
        # breaks the (distance, code) pop order the wave's count and
        # parents are derived from.  The deadline turns an endless wave
        # into a failure; the parent walk has no checkpoint.
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


def test_section3_node_totals_are_the_quoted_ones():
    """The section 3 benchmark's deterministic half: the search nodes of
    both engines over seeds 1-3, as EXPERIMENTS.md quotes them."""
    config = LevelBConfig(maze_fallback=False, max_ripups=0)
    totals = {}
    for router_cls in (LevelBRouter, MazeRouter):
        totals[router_cls] = 0
        for seed in (1, 2, 3):
            design, bounds = section3_workload(seed)
            router = router_cls(bounds, list(design.nets.values()), config=config)
            totals[router_cls] += router.route().nodes_created
    assert totals == {LevelBRouter: 80_679, MazeRouter: 246_474}
    text = EXPERIMENTS.read_text()
    assert "80,679" in text and "246,474" in text
