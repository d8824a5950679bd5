"""The paper's Steiner-Prim heuristic on point sets (section 3.3).

Prim's algorithm grows a component one vertex at a time, always adding
the vertex nearest the component.  The paper's twist: distance is
measured to the *whole realised component* - terminals **and** Steiner
points lying on already-routed segments - and the new terminal connects
to whichever of those it is closest to.  Connections are realised as
rectilinear L-shapes, so every point on every segment is a potential
Steiner point for later terminals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.geometry import Point, Segment, manhattan


@dataclass
class SteinerTree:
    """The realised tree: rectilinear segments spanning the terminals."""

    terminals: list[Point]
    segments: list[Segment] = field(default_factory=list)

    @property
    def length(self) -> int:
        return sum(s.length for s in self.segments)

    def covers(self, p: Point) -> bool:
        """Is ``p`` on some tree segment (or a terminal)?"""
        if p in self.terminals:
            return True
        return any(s.contains_point(p) for s in self.segments)


def _closest_on_segment(p: Point, seg: Segment) -> Point:
    box = seg.bounds
    return Point(box.x_interval.clamp(p.x), box.y_interval.clamp(p.y))


def _closest_tree_point(tree: SteinerTree, connected: Sequence[Point], p: Point) -> tuple[Point, int]:
    best_pt = connected[0]
    best_d = manhattan(p, best_pt)
    for q in connected[1:]:
        d = manhattan(p, q)
        if d < best_d:
            best_pt, best_d = q, d
    for seg in tree.segments:
        q = _closest_on_segment(p, seg)
        d = manhattan(p, q)
        if d < best_d:
            best_pt, best_d = q, d
    return best_pt, best_d


def _l_shape(a: Point, b: Point, prefer_horizontal_first: bool) -> list[Segment]:
    """Realise a connection as at most two axis-parallel segments."""
    if a == b:
        return []
    if a.x == b.x or a.y == b.y:
        return [Segment(a, b)]
    if prefer_horizontal_first:
        bend = Point(b.x, a.y)
    else:
        bend = Point(a.x, b.y)
    return [Segment(a, bend), Segment(bend, b)]


def steiner_prim_tree(
    points: Sequence[Point], prefer_horizontal_first: bool = True
) -> SteinerTree:
    """Grow a rectilinear Steiner tree over ``points``.

    Deterministic: starts from the terminal nearest the centroid and
    breaks ties by point order.  The result's length never exceeds the
    rectilinear MST's (each step connects at distance <= the Prim
    distance to the nearest connected *terminal*).
    """
    pts = list(dict.fromkeys(points))  # dedupe, keep order
    if not pts:
        raise ValueError("steiner_prim_tree needs at least one point")
    tree = SteinerTree(terminals=list(pts))
    if len(pts) == 1:
        return tree
    cx = sum(p.x for p in pts) // len(pts)
    cy = sum(p.y for p in pts) // len(pts)
    centroid = Point(cx, cy)
    start = min(pts, key=lambda p: (manhattan(p, centroid), p))
    connected: list[Point] = [start]
    remaining: list[Point] = [p for p in pts if p != start]
    while remaining:
        pick: Point | None = None
        pick_attach: Point | None = None
        pick_d: int | None = None
        for p in remaining:
            attach, d = _closest_tree_point(tree, connected, p)
            if pick_d is None or d < pick_d or (d == pick_d and p < pick):
                pick, pick_attach, pick_d = p, attach, d
        assert pick is not None and pick_attach is not None
        for seg in _l_shape(pick_attach, pick, prefer_horizontal_first):
            tree.segments.append(seg)
        connected.append(pick)
        remaining.remove(pick)
    return tree
