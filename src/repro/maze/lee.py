"""Lee-style wave expansion on the routing grid.

Implementation notes
--------------------
The search state is ``(v_idx, h_idx, direction)``: a wavefront cell
plus the direction the wire is travelling through it.  Straight moves
cost their geometric length (tracks are non-uniform); a direction
change costs ``via_penalty`` and requires the intersection to accept a
corner via.  With non-negative costs this is Dijkstra - the standard
generalisation of Lee's algorithm to weighted grids - and it returns a
minimum-cost path whenever one exists, which also makes it the test
oracle for the MBFS router's completeness within a region.

Availability is read once per call: one
:meth:`~repro.grid.RoutingGrid.window_masks` read over the search
window (the whole grid for the rescue) gives the usable-wire and corner
matrices the MBFS and the reachability flood read, and a probe is one
index into them.  States are coded as integers whose order equals the
``(v_idx, h_idx, direction)`` tuple order, so the heap pops them in the
same ``(cost, state)`` order.

:class:`LeeEngine` packages the search as a
:class:`~repro.core.engine.ConnectionEngine`, so the same code serves
as the primary engine of the standalone :class:`MazeRouter` baseline
and as the rescue engine behind ``LevelBConfig.maze_fallback``; both
price a corner at :data:`repro.core.router.MAZE_VIA_PENALTY`.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

from repro import instrument
from repro.instrument.names import (
    MAZE_NODES_EXPANDED,
    MAZE_SEARCHES,
    REGION_EXPANSIONS,
)
from repro.geometry import Interval, Path, Point
from repro.grid import RoutingGrid
from repro.core.engine import (
    ConnectionEngine,
    EngineContext,
    Region,
    RoutedConnection,
)
from repro.core.cancel import checkpoint
from repro.core.router import LevelBRouter
from repro.core.search import search_window
from repro.core.tig import GridTerminal

HORIZONTAL = 0
VERTICAL = 1

State = tuple[int, int, int]  # (v_idx, h_idx, direction)


def lee_search(
    grid: RoutingGrid,
    net_id: int,
    source: GridTerminal,
    target: GridTerminal,
    *,
    via_penalty: float = 10.0,
    region: tuple[Interval, Interval] | None = None,
) -> tuple[list[Point] | None, list[tuple[int, int]] | None, int]:
    """Minimum-cost path between two terminals, or ``None``.

    Returns ``(waypoints, corners, nodes_expanded)``.  Waypoints are the
    compressed corner sequence (source, corners..., target); corners
    are ``(v_idx, h_idx)`` index pairs ready for
    :meth:`repro.grid.RoutingGrid.commit_path`, and ``nodes_expanded``
    counts the states the wave popped.  Every 1024 expansions
    the wave calls :func:`~repro.core.cancel.checkpoint`.  A negative
    or non-finite ``via_penalty`` raises :class:`ValueError`: Dijkstra
    needs finite, non-negative move costs.
    """
    if not (via_penalty >= 0 and math.isfinite(via_penalty)):
        raise ValueError(f"via_penalty must be finite and >= 0, got {via_penalty!r}")
    # Validate both terminals once; every probe below stays inside the
    # (clipped) window, so the matrix reads need no per-cell checks.
    source.position(grid)
    target.position(grid)
    v_iv, h_iv = search_window(grid, source, target, region)
    xs, ys = grid.vtracks.coords, grid.htracks.coords
    v_lo, v_hi, h_lo, h_hi = v_iv.lo, v_iv.hi, h_iv.lo, h_iv.hi
    # One availability read for the whole wave, indexed from the
    # window's low corner: a horizontal move probes ``usable_h[h, v]``,
    # a vertical move ``usable_v[v, h]`` and a turn ``corner[h, v]``
    # (the grid folds a wide net's footprint into all three).  Probes go
    # through memoryviews of the matrices: no copy, and a Python bool
    # per read.
    usable_h, usable_v, corner = map(
        memoryview, grid.window_masks(net_id, v_iv, h_iv)
    )

    # State (v, h, direction) is coded ((v * nh + h) << 1) | direction.
    nh = grid.num_htracks
    v_step, h_step = nh << 1, 2
    dist: dict[int, float] = {}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = []
    sv, sh = source.v_idx, source.h_idx
    for direction, usable in (
        (HORIZONTAL, usable_h[sh - h_lo, sv - v_lo]),
        (VERTICAL, usable_v[sv - v_lo, sh - h_lo]),
    ):
        if usable:
            state = ((sv * nh + sh) << 1) | direction
            dist[state] = 0.0
            parent[state] = -1
            heapq.heappush(heap, (0.0, state))

    goal_cell = target.v_idx * nh + target.h_idx
    goal: int | None = None
    expanded = 0
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        expanded += 1
        if not expanded & 1023:
            checkpoint()
        cell = state >> 1
        if cell == goal_cell:
            goal = state
            break
        v, h = divmod(cell, nh)
        i, j = v - v_lo, h - h_lo
        moves: list[tuple[int, float]] = []
        if (state & 1) == HORIZONTAL:
            if v > v_lo and usable_h[j, i - 1]:
                moves.append((state - v_step, float(abs(xs[v - 1] - xs[v]))))
            if v < v_hi and usable_h[j, i + 1]:
                moves.append((state + v_step, float(abs(xs[v + 1] - xs[v]))))
            if corner[j, i]:
                moves.append((state | VERTICAL, via_penalty))
        else:
            if h > h_lo and usable_v[i, j - 1]:
                moves.append((state - h_step, float(abs(ys[h - 1] - ys[h]))))
            if h < h_hi and usable_v[i, j + 1]:
                moves.append((state + h_step, float(abs(ys[h + 1] - ys[h]))))
            if corner[j, i]:
                moves.append((state ^ VERTICAL, via_penalty))
        for nstate, cost in moves:
            nd = d + cost
            if nd < dist.get(nstate, float("inf")):
                dist[nstate] = nd
                parent[nstate] = state
                heapq.heappush(heap, (nd, nstate))

    # One batched instrumentation report per wave expansion: the inner
    # loop above tallies into ``expanded`` only.
    inst = instrument.active()
    if inst.enabled:
        inst.count(MAZE_SEARCHES)
        inst.count(MAZE_NODES_EXPANDED, expanded)

    if goal is None:
        return None, None, expanded

    # Walk parents, then compress to waypoints at direction changes.
    states: list[State] = []
    cursor = goal
    while cursor >= 0:
        v, h = divmod(cursor >> 1, nh)
        states.append((v, h, cursor & 1))
        cursor = parent[cursor]
    states.reverse()
    waypoints: list[Point] = [Point(xs[states[0][0]], ys[states[0][1]])]
    corners: list[tuple[int, int]] = []
    for prev, nxt in zip(states, states[1:]):
        if prev[2] != nxt[2]:  # in-place direction switch: a corner via
            corners.append((prev[0], prev[1]))
            point = Point(xs[prev[0]], ys[prev[1]])
            if point != waypoints[-1]:
                waypoints.append(point)
    end = Point(xs[states[-1][0]], ys[states[-1][1]])
    if end != waypoints[-1]:
        waypoints.append(end)
    elif len(waypoints) == 1:
        waypoints.append(end)  # degenerate same-point path
    return waypoints, corners, expanded


class LeeEngine(ConnectionEngine):
    """Lee/Dijkstra wave expansion as a pluggable connection engine.

    Complete within its region (unlike the MBFS, which drops paths with
    more than one corner per track), so with the unbounded region it
    finds a connection whenever one exists.  It prices moves with track
    lengths and ``via_penalty`` alone: the section 3.2 cost model, and
    with it the iterate history, steers only the MBFS selection.
    """

    def __init__(self, via_penalty: float) -> None:
        self.via_penalty = via_penalty

    def route(
        self,
        ctx: EngineContext,
        net_id: int,
        source: GridTerminal,
        target: GridTerminal,
        regions: Iterable[Region],
    ) -> RoutedConnection | None:
        if source == target:
            return None
        grid = ctx.grid
        for attempt, region in enumerate(regions):
            if attempt:
                instrument.count(REGION_EXPANSIONS)
            waypoints, corners, expanded = lee_search(
                grid,
                net_id,
                source,
                target,
                via_penalty=self.via_penalty,
                region=region,
            )
            ctx.add_nodes(expanded)
            if waypoints is None or corners is None:
                continue
            with grid.transaction():
                grid.commit_path(net_id, waypoints, corners)
            return RoutedConnection(
                source=source,
                target=target,
                path=Path.from_points(waypoints),
                corners=corners,
                expansions_used=attempt,
            )
        return None


class MazeRouter(LevelBRouter):
    """Drop-in level B router that searches with Lee wave expansion.

    Inherits the whole net loop (ordering, Steiner decomposition,
    region escalation, rip-up, refinement) from :class:`LevelBRouter`
    and swaps only the per-connection engine, so benchmark comparisons
    isolate the search algorithm.  Corners cost
    :data:`~repro.core.router.MAZE_VIA_PENALTY`, scaled under
    ``objective="vias"`` exactly as for the rescue engine.
    """

    def _primary_engine(self) -> ConnectionEngine:
        return LeeEngine(self._lee_via_penalty())

    def _rescue_engine(self) -> None:
        """No rescue: Lee's last region is already the whole grid."""
        return None
