"""Tests for the LevelBRouter orchestrator."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.netlist import Edge
from repro.core import LevelBConfig, LevelBRouter
from repro.core.cost import CostWeights
from repro.core.ordering import POLICIES, feature, longest_first
from repro.core.router import Obstacle

from conftest import make_toy_design, span_usable


def route_toy(**cfg_kwargs):
    design = make_toy_design()
    bounds = Rect(0, 0, 256, 256)
    config = LevelBConfig(**cfg_kwargs) if cfg_kwargs else None
    router = LevelBRouter(bounds, list(design.nets.values()), config=config)
    return router.route()


class TestOwnerWidth:
    @pytest.mark.parametrize("planes", [1, 2])
    def test_owners_sized_to_the_net_count(self, planes):
        design = make_toy_design()
        nets = list(design.nets.values())
        router = LevelBRouter(Rect(0, 0, 256, 256), nets, planes=planes)
        assert len(router.nets) <= 127
        assert [g.max_net_id for g in router.tig.planes] == [127] * planes
        for grid in router.tig.planes:
            assert grid.snapshot().unrouted_terms.dtype == np.int8


class TestBasicRouting:
    def test_toy_design_routes_completely(self):
        result = route_toy()
        assert result.completion_rate == 1.0
        assert result.total_wire_length > 0
        assert result.nets_completed == result.nets_attempted

    def test_connection_counts(self):
        result = route_toy()
        for routed in result.routed:
            # A degree-d net needs d-1 connections (unless pins coincide).
            assert len(routed.connections) == routed.net.degree - 1

    def test_paths_connect_net_terminals(self):
        result = route_toy()
        grid = result.tig.grid
        for routed in result.routed:
            positions = set(routed.net.pin_positions())
            touched = set()
            for conn in routed.connections:
                touched.add(conn.path.start)
                touched.add(conn.path.end)
            # Every pin position is an endpoint of some connection or
            # lies on a routed segment (Steiner attachment).
            for pos in positions:
                on_path = any(
                    seg.contains_point(pos)
                    for c in routed.connections
                    for seg in c.path
                )
                assert pos in touched or on_path

    def test_vias_counted(self):
        result = route_toy()
        assert result.total_vias == result.total_corners + sum(
            r.net.degree for r in result.routed
        )

    def test_deterministic(self):
        r1 = route_toy()
        r2 = route_toy()
        assert r1.total_wire_length == r2.total_wire_length
        assert r1.total_corners == r2.total_corners


class TestValidation:
    def test_terminal_outside_bounds_rejected(self):
        design = make_toy_design()
        with pytest.raises(ValueError):
            LevelBRouter(Rect(0, 0, 50, 50), list(design.nets.values()))

    def test_two_layer_tech_rejected(self):
        from repro.technology import Technology

        design = make_toy_design()
        with pytest.raises(ValueError):
            LevelBRouter(
                Rect(0, 0, 256, 256),
                list(design.nets.values()),
                technology=Technology.two_layer(),
            )

    def test_single_pin_nets_ignored(self):
        design = make_toy_design()
        lone = design.add_net("lonely")
        lone.add_pin(design.add_pin("c0", "extra", Edge.TOP, 16))
        router = LevelBRouter(Rect(0, 0, 256, 256), list(design.nets.values()))
        result = router.route()
        assert all(r.net.name != "lonely" for r in result.routed)


class TestObstacles:
    def test_routes_avoid_obstacles(self):
        design = make_toy_design()
        bounds = Rect(0, 0, 256, 256)
        obstacle = Rect(100, 100, 140, 140)
        router = LevelBRouter(
            bounds, list(design.nets.values()), obstacles=[obstacle]
        )
        result = router.route()
        assert result.completion_rate == 1.0
        # The invariant: no slot inside the obstacle carries wire.
        grid = result.tig.grid
        for v in grid.vtracks.index_range(obstacle.x1, obstacle.x2):
            for h in grid.htracks.index_range(obstacle.y1, obstacle.y2):
                assert grid.h_slot(v, h) == -1
                assert grid.v_slot(v, h) == -1

    def test_directional_obstacle(self):
        design = make_toy_design()
        bounds = Rect(0, 0, 256, 256)
        obs = Obstacle(rect=Rect(100, 100, 140, 140), block_h=True, block_v=False)
        router = LevelBRouter(bounds, list(design.nets.values()), obstacles=[obs])
        result = router.route()
        grid = result.tig.grid
        for v in grid.vtracks.index_range(100, 140):
            for h in grid.htracks.index_range(100, 140):
                assert grid.h_slot(v, h) == -1  # horizontal blocked
        assert result.completion_rate == 1.0

    def test_obstacle_over_terminal_rejected(self):
        design = make_toy_design()
        pin_pos = next(iter(design.nets.values())).pin_positions()[0]
        obstacle = Rect(pin_pos.x - 4, pin_pos.y - 4, pin_pos.x + 4, pin_pos.y + 4)
        with pytest.raises(ValueError):
            LevelBRouter(
                Rect(0, 0, 256, 256),
                list(design.nets.values()),
                obstacles=[obstacle],
            )


def geometry(result):
    return {
        r.net.name: [tuple(c.path.waypoints()) for c in r.connections]
        for r in result.routed
    }


class TestConfiguration:
    def test_orderings_all_complete(self):
        nets = list(make_toy_design().nets.values())
        for name in POLICIES:
            router = LevelBRouter(Rect(0, 0, 256, 256), nets, ordering_policy=name)
            assert router.route().completion_rate == 1.0, name

    def test_ordering_policy_orders_one_pass_routing(self):
        """``route()`` routes in ``POLICIES[ordering_policy](nets, {})``;
        on this design the ``feature`` order moves the geometry."""
        nets = list(make_toy_design(seed=1, nets=8).nets.values())
        assert feature(nets, {}) != longest_first(nets, {})
        bounds = Rect(0, 0, 256, 256)
        got = LevelBRouter(bounds, nets, ordering_policy="feature").route()
        want = LevelBRouter(bounds, nets).route(order=feature(nets, {}))
        assert geometry(got) == geometry(want)
        assert geometry(got) != geometry(LevelBRouter(bounds, nets).route())

    def test_dense_weights_work(self):
        result = route_toy(weights=CostWeights.dense())
        assert result.completion_rate == 1.0

    def test_no_maze_fallback_still_routes_toy(self):
        result = route_toy(maze_fallback=False)
        assert result.completion_rate == 1.0

    def test_no_ripups_on_easy_design(self):
        result = route_toy(max_ripups=0)
        assert result.completion_rate == 1.0
        assert result.ripups == 0


class TestOccupancyConsistency:
    def test_wirelength_matches_occupancy(self):
        """Each net's claimed slots must cover its path cells."""
        result = route_toy()
        grid = result.tig.grid
        for routed in result.routed:
            nid = routed.net_id
            for conn in routed.connections:
                for seg in conn.path:
                    if seg.is_point:
                        continue
                    if seg.is_horizontal:
                        h = grid.htracks.index_of(seg.a.y)
                        rng = grid.vtracks.index_range(
                            seg.bounds.x1, seg.bounds.x2
                        )
                        assert span_usable(grid, False, h, rng.start, rng.stop - 1, nid)
                    else:
                        v = grid.vtracks.index_of(seg.a.x)
                        rng = grid.htracks.index_range(
                            seg.bounds.y1, seg.bounds.y2
                        )
                        assert span_usable(grid, True, v, rng.start, rng.stop - 1, nid)

    def test_no_foreign_overlap(self):
        """Owners on the grid are exactly the routed nets."""
        result = route_toy()
        ids = {r.net_id for r in result.routed}
        assert set(result.tig.grid.owners()) <= ids
