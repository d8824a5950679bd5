"""Tests for the point-set Steiner/spanning tree algorithms."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, manhattan
from repro.steiner import rectilinear_mst, steiner_prim_tree, tree_length

coords = st.integers(min_value=0, max_value=200)
points = st.builds(Point, coords, coords)
point_sets = st.lists(points, min_size=2, max_size=12, unique=True)


class TestRectilinearMST:
    def test_two_points(self):
        edges = rectilinear_mst([Point(0, 0), Point(3, 4)])
        assert len(edges) == 1
        assert edges[0].length == 7

    def test_fewer_than_two(self):
        assert rectilinear_mst([]) == []
        assert rectilinear_mst([Point(0, 0)]) == []

    def test_collinear_chain(self):
        pts = [Point(0, 0), Point(10, 0), Point(20, 0)]
        edges = rectilinear_mst(pts)
        assert tree_length(edges) == 20

    @given(point_sets)
    def test_spans_all_points(self, pts):
        edges = rectilinear_mst(pts)
        g = nx.Graph()
        g.add_nodes_from(pts)
        for e in edges:
            g.add_edge(e.a, e.b)
        assert nx.is_connected(g)
        assert len(edges) == len(pts) - 1

    @given(point_sets)
    def test_matches_networkx_mst_weight(self, pts):
        edges = rectilinear_mst(pts)
        g = nx.Graph()
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                g.add_edge(a, b, weight=manhattan(a, b))
        expected = sum(
            d["weight"] for _, _, d in nx.minimum_spanning_edges(g, data=True)
        )
        assert tree_length(edges) == expected


class TestSteinerPrim:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            steiner_prim_tree([])

    def test_single_point(self):
        tree = steiner_prim_tree([Point(5, 5)])
        assert tree.length == 0
        assert tree.segments == []

    def test_l_shape_realisation(self):
        tree = steiner_prim_tree([Point(0, 0), Point(3, 4)])
        assert tree.length == 7
        assert 1 <= len(tree.segments) <= 2

    def test_steiner_point_saves_length(self):
        """A T where attaching to a trunk Steiner point beats the MST.

        The trunk (0,0)-(20,0) routes first; the far terminal (10,30)
        then attaches at the Steiner point (10,0), saving 10 units over
        any terminal-to-terminal tree.
        """
        pts = [Point(0, 0), Point(20, 0), Point(10, 30)]
        tree = steiner_prim_tree(pts)
        mst = tree_length(rectilinear_mst(pts))
        assert mst == 60
        assert tree.length == 50  # trunk 20 + stem 30
        assert Point(10, 0) in {s.a for s in tree.segments} | {
            s.b for s in tree.segments
        }

    def test_covers(self):
        tree = steiner_prim_tree([Point(0, 0), Point(10, 0)])
        assert tree.covers(Point(5, 0))
        assert not tree.covers(Point(5, 5))

    @given(point_sets)
    @settings(max_examples=60)
    def test_never_longer_than_mst(self, pts):
        tree = steiner_prim_tree(pts)
        assert tree.length <= tree_length(rectilinear_mst(pts))

    @given(point_sets)
    @settings(max_examples=60)
    def test_connects_all_terminals(self, pts):
        tree = steiner_prim_tree(pts)
        # Build a graph over segment endpoints + crossings via shared points.
        g = nx.Graph()
        nodes = set(pts)
        for seg in tree.segments:
            nodes.add(seg.a)
            nodes.add(seg.b)
        g.add_nodes_from(nodes)
        for seg in tree.segments:
            for a in nodes:
                for b in nodes:
                    if a != b and seg.contains_point(a) and seg.contains_point(b):
                        g.add_edge(a, b)
        if len(pts) >= 2:
            comp = nx.node_connected_component(g, pts[0])
            assert all(p in comp for p in pts)

    @given(point_sets)
    @settings(max_examples=40)
    def test_length_lower_bound(self, pts):
        """Tree length is at least half the bounding-box perimeter/..., or
        more simply, at least the max pairwise distance."""
        tree = steiner_prim_tree(pts)
        longest = max(manhattan(a, b) for a in pts for b in pts)
        assert tree.length >= longest

    def test_orientation_flag(self):
        a = steiner_prim_tree([Point(0, 0), Point(5, 5)], prefer_horizontal_first=True)
        b = steiner_prim_tree([Point(0, 0), Point(5, 5)], prefer_horizontal_first=False)
        assert a.length == b.length == 10
        assert {s.a for s in a.segments} != {s.a for s in b.segments} or len(
            a.segments
        ) == 1
