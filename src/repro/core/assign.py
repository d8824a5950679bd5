"""The plane-assignment pass: distribute level B nets across planes.

With more than one over-cell plane the router must decide, before any
wiring exists, which reserved-layer pair each net will route on.  The
pass here is static and deterministic — a congestion-estimate greedy in
the spirit of the paper's net ordering:

1. Nets are visited longest (bounding-box half-perimeter) first, ties
   broken by net id.  Long nets benefit most from the emptier upper
   planes (the paper routes "long distance interconnections ... using
   wider lines"), and visiting them first lets the short nets fill the
   gaps on plane 0 around them.
2. Each plane keeps a coarse demand map (a ``BINS_X x BINS_Y`` grid of
   accumulated estimated wire density).  A net's candidate cost on a
   plane is the mean demand already accumulated over its bounding box,
   plus a via-stack penalty that grows with the plane's altitude and
   the net's pin count (``via_weight`` per extra via level).  This is
   the only place altitude is priced: once a net has its plane, the
   routing cost function never sees the plane again.
3. The net takes the cheapest plane (ties go to the lowest), then adds
   its own estimated demand (half-perimeter spread uniformly over its
   box) to that plane's map.

With ``num_planes == 1`` every net is trivially assigned plane 0 and
the pass is free, which is part of the single-plane parity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro import instrument
from repro.instrument.names import EVT_PLANE_ASSIGNED
from repro.geometry import Point, Rect

__all__ = ["NetDemand", "assign_planes"]

#: Demand-map resolution.  Coarse on purpose: the estimate only has to
#: rank planes, and a fine map would ask more precision of a
#: pre-routing guess than it can deliver.
BINS_X = 16
BINS_Y = 12


@dataclass(frozen=True)
class NetDemand:
    """What the assignment pass needs to know about one net."""

    net_id: int
    pins: tuple[Point, ...]

    @property
    def bbox(self) -> tuple[int, int, int, int]:
        xs = [p.x for p in self.pins]
        ys = [p.y for p in self.pins]
        return (min(xs), min(ys), max(xs), max(ys))

    @property
    def half_perimeter(self) -> int:
        x1, y1, x2, y2 = self.bbox
        return (x2 - x1) + (y2 - y1)

    @property
    def degree(self) -> int:
        return len(self.pins)


def _bin_box(
    bbox: tuple[int, int, int, int], bounds: Rect
) -> tuple[int, int, int, int]:
    """The demand-map bin rectangle covering a net's bounding box."""
    w = max(1, bounds.x2 - bounds.x1)
    h = max(1, bounds.y2 - bounds.y1)
    x1, y1, x2, y2 = bbox
    bx1 = min(BINS_X - 1, max(0, (x1 - bounds.x1) * BINS_X // w))
    bx2 = min(BINS_X - 1, max(0, (x2 - bounds.x1) * BINS_X // w))
    by1 = min(BINS_Y - 1, max(0, (y1 - bounds.y1) * BINS_Y // h))
    by2 = min(BINS_Y - 1, max(0, (y2 - bounds.y1) * BINS_Y // h))
    return bx1, by1, bx2, by2


def assign_planes(
    nets: Sequence[NetDemand],
    bounds: Rect,
    num_planes: int,
    via_weight: float,
) -> dict[int, int]:
    """Map every net id to an over-cell plane (0-based, 0 = lowest)."""
    if num_planes < 1:
        raise ValueError(f"need at least one plane, got {num_planes}")
    if num_planes == 1:
        return {n.net_id: 0 for n in nets}
    demand = [
        [[0.0] * BINS_X for _ in range(BINS_Y)] for _ in range(num_planes)
    ]
    assignment: dict[int, int] = {}
    ordered = sorted(nets, key=lambda n: (-n.half_perimeter, n.net_id))
    for net in ordered:
        bx1, by1, bx2, by2 = _bin_box(net.bbox, bounds)
        nbins = (bx2 - bx1 + 1) * (by2 - by1 + 1)
        best_plane = 0
        best_cost = float("inf")
        for plane in range(num_planes):
            overlap = sum(
                demand[plane][by][bx]
                for by in range(by1, by2 + 1)
                for bx in range(bx1, bx2 + 1)
            ) / nbins
            # 2 * plane extra via levels per pin stack.
            cost = overlap + via_weight * 2 * plane * net.degree
            if cost < best_cost:
                best_cost = cost
                best_plane = plane
        assignment[net.net_id] = best_plane
        density = net.half_perimeter / nbins
        plane_map = demand[best_plane]
        for by in range(by1, by2 + 1):
            for bx in range(bx1, bx2 + 1):
                plane_map[by][bx] += density
        if best_plane:
            instrument.event(
                EVT_PLANE_ASSIGNED,
                net_id=net.net_id,
                plane=best_plane,
                half_perimeter=net.half_perimeter,
            )
    return assignment
