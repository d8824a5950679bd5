"""Tests for repro.core.tig (Track Intersection Graph)."""

import pytest

from repro.geometry import Point, Rect
from repro.grid import TrackSet
from repro.core.tig import GridTerminal, TrackIntersectionGraph


class TestConstruction:
    def test_over_area_threads_terminal_tracks(self):
        tig = TrackIntersectionGraph.over_area(
            Rect(0, 0, 100, 100), v_pitch=12, h_pitch=12,
            terminal_points=[Point(7, 31)],
        )
        assert tig.grid.vtracks.has(7)
        assert tig.grid.htracks.has(31)

    def test_over_area_covers_bounds(self):
        tig = TrackIntersectionGraph.over_area(
            Rect(0, 0, 100, 50), v_pitch=12, h_pitch=10
        )
        assert tig.grid.vtracks.span.lo == 0
        assert tig.grid.vtracks.span.hi == 100
        assert tig.grid.htracks.span.hi == 50

    def test_over_area_sizes_arrays_to_the_nets(self):
        tig = TrackIntersectionGraph.over_area(
            Rect(0, 0, 100, 50), v_pitch=12, h_pitch=10, num_planes=2,
            num_nets=128, max_degree=200,
        )
        assert [g.max_net_id for g in tig.planes] == [32_767, 32_767]
        # int16 owners and terminal counts: 2 + 2 + 2 bytes a point, a plane.
        assert tig.planes.memory_bytes() == 2 * 6 * tig.grid.num_intersections
        default = TrackIntersectionGraph.over_area(Rect(0, 0, 100, 50), 12, 10)
        assert default.grid.max_net_id == 2**31 - 1
        assert default.grid.memory_bytes() == 10 * default.grid.num_intersections

    def test_terminal_at_requires_exact_tracks(self):
        tig = TrackIntersectionGraph(TrackSet([0, 10]), TrackSet([0, 10]))
        assert tig.terminal_at(Point(10, 0)) == GridTerminal(1, 0)
        with pytest.raises(KeyError):
            tig.terminal_at(Point(5, 0))


class TestTerminals:
    def test_register_net(self):
        tig = TrackIntersectionGraph(TrackSet([0, 10, 20]), TrackSet([0, 10, 20]))
        terms = tig.register_net(1, [Point(0, 0), Point(20, 20)])
        assert len(terms) == 2
        assert tig.terminals_of(1) == terms
        assert not tig.edge_usable(0, 0)  # reserved for net 1
        assert tig.edge_usable(0, 0, net_id=1)

    def test_all_terminals(self):
        tig = TrackIntersectionGraph(TrackSet([0, 10]), TrackSet([0, 10]))
        tig.register_net(1, [Point(0, 0)])
        tig.register_net(2, [Point(10, 10)])
        assert set(tig.all_terminals()) == {1, 2}

    def test_terminal_position_roundtrip(self):
        tig = TrackIntersectionGraph(TrackSet([0, 10]), TrackSet([0, 30]))
        term = tig.terminal_at(Point(10, 30))
        assert term.position(tig.grid) == Point(10, 30)


class TestGraphView:
    def test_vertex_names(self):
        tig = TrackIntersectionGraph(TrackSet([0, 10, 20]), TrackSet([0, 10]))
        vs, hs = tig.vertex_names()
        assert vs == ["v1", "v2", "v3"]
        assert hs == ["h1", "h2"]

    def test_edges_enumeration_full_grid(self):
        tig = TrackIntersectionGraph(TrackSet([0, 10]), TrackSet([0, 10]))
        assert len(list(tig.edges())) == 4

    def test_obstacle_removes_edges(self):
        tig = TrackIntersectionGraph(TrackSet([0, 10, 20]), TrackSet([0, 10, 20]))
        blocked = tig.add_obstacle(Rect(10, 10, 10, 10))
        assert blocked == 1
        assert (1, 1) not in set(tig.edges())
        assert len(list(tig.edges())) == 8

    def test_degree(self):
        tig = TrackIntersectionGraph(TrackSet([0, 10, 20]), TrackSet([0, 10]))
        assert tig.degree("v1") == 2
        assert tig.degree("h2") == 3
        tig.add_obstacle(Rect(0, 10, 0, 10))
        assert tig.degree("h2") == 2
        with pytest.raises(ValueError):
            tig.degree("x1")

    def test_bipartite_edge_count_invariant(self):
        """Sum of v-degrees equals sum of h-degrees equals |E|."""
        tig = TrackIntersectionGraph(TrackSet([0, 10, 20, 30]), TrackSet([0, 10, 20]))
        tig.add_obstacle(Rect(10, 0, 20, 10))
        v_sum = sum(tig.degree(f"v{i+1}") for i in range(4))
        h_sum = sum(tig.degree(f"h{j+1}") for j in range(3))
        assert v_sum == h_sum == len(list(tig.edges()))
