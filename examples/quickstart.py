#!/usr/bin/env python3
"""Quickstart: the paper's Figure 1 worked example.

Builds a small level B instance - three nets A, B, C on a 6x5 track
grid with one obstacle - then:

1. prints the Track Intersection Graph (Figure 1's right half),
2. runs the modified BFS for net B and prints its Path Selection
   Trees (Figure 2),
3. routes all three nets serially with the full level B router and
   prints the resulting paths.

Run:  python examples/quickstart.py
"""

from repro.core import LevelBRouter
from repro.core.search import MBFSearch, candidate_paths
from repro.core.tig import TrackIntersectionGraph
from repro.geometry import Point, Rect
from repro.grid import TrackSet
from repro.netlist import Design, Edge
from repro.viz import render_pst, render_tig


def build_instance():
    """Six vertical tracks, five horizontal; terminals as in Figure 1."""
    vtracks = TrackSet([0, 10, 20, 30, 40, 50])
    htracks = TrackSet([0, 10, 20, 30, 40])
    tig = TrackIntersectionGraph(vtracks, htracks)
    tig.register_net(1, [Point(0, 0), Point(20, 40)])   # net A
    tig.register_net(2, [Point(10, 10), Point(50, 30)])  # net B
    tig.register_net(3, [Point(40, 0), Point(40, 40)])   # net C
    tig.add_obstacle(Rect(25, 15, 35, 25))               # obstacle O1
    return tig


def show_tig(tig):
    print("=" * 64)
    print("Track Intersection Graph (obstacle removes edge (v4,h3)):")
    print(render_tig(tig))


def show_path_selection_trees(tig):
    print("=" * 64)
    print("MBFS for net B - terminals (h2,v2) and (h4,v6):")
    source, target = tig.terminals_of(2)
    result = MBFSearch(tig.grid, 2, source, target).run()
    print(f"  minimum corners: {result.min_corners}")
    print(f"  candidate paths: {len(result.leaves)}")
    for i, root in enumerate(result.roots):
        print(f"\nPath Selection Tree {i + 1} (rooted at {root.name()}):")
        print(render_pst(root, result.leaves))
    print("\nCandidates (track sequences, paper notation):")
    batch = candidate_paths(result, tig.grid)
    for i, leaf in enumerate(result.leaves):
        seq = leaf.track_sequence()
        print(
            f"  ({', '.join(seq)}, terminal)  corners={len(batch.geometry(i)[1])} "
            f"length={batch.lengths[i]}"
        )


def route_everything():
    """The same instance via the high-level Design/Router API."""
    print("=" * 64)
    print("Serial level B routing of all three nets:")
    design = Design("figure1")
    # One 1x1-ish dummy cell per terminal, pins at the terminal points.
    terminals = {
        "A": [Point(0, 0), Point(20, 40)],
        "B": [Point(10, 10), Point(50, 30)],
        "C": [Point(40, 0), Point(40, 40)],
    }
    for name, points in terminals.items():
        net = design.add_net(name)
        for k, p in enumerate(points):
            cell = design.add_cell(f"{name}{k}", 8, 8)
            cell.place(p.x, p.y - 8)  # pin on the TOP edge hits p
            net.add_pin(design.add_pin(cell.name, "p", Edge.TOP, 0))
    router = LevelBRouter(
        Rect(-10, -10, 60, 50),
        list(design.nets.values()),
        obstacles=[Rect(25, 15, 35, 25)],
    )
    result = router.route()
    print(f"  completion: {result.completion_rate:.0%}")
    print(f"  total wire length: {result.total_wire_length}")
    print(f"  corner vias: {result.total_corners}")
    for routed in result.routed:
        for conn in routed.connections:
            points = " -> ".join(str(p) for p in conn.path.waypoints())
            print(f"  net {routed.net.name}: {points}")


def main():
    tig = build_instance()
    show_tig(tig)
    show_path_selection_trees(tig)
    route_everything()


if __name__ == "__main__":
    main()
