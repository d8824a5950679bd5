"""Lee-style wave expansion on the routing grid.

Implementation notes
--------------------
The search state is ``(v_idx, h_idx, direction)``: a wavefront cell
plus the direction the wire is travelling through it.  Straight moves
cost their geometric length (tracks are non-uniform); a direction
change costs ``via_penalty`` and requires the intersection to accept a
corner via.  With positive costs this is Dijkstra - the standard
generalisation of Lee's algorithm to weighted grids - and it returns a
minimum-cost path whenever one exists, which also makes it the test
oracle for the MBFS router's completeness within a region.

Availability is read once per call: one
:meth:`~repro.grid.RoutingGrid.window_masks` read over the search
window (the whole grid for the rescue) gives the usable-wire and corner
matrices the MBFS and the reachability flood read.

The wave is not a heap.  Every move costs more than zero, so a
cell-by-cell Dijkstra wave pops its states in ``(distance, code)``
order, where the code ``((v * nh + h) << 1) | direction`` orders like
the ``(v_idx, h_idx, direction)`` tuple.  Three facts then follow from
the exact distances alone:

* the wave pops 1 plus the number of states whose ``(distance, code)``
  orders before the goal state's, where the goal state is whichever of
  the target cell's two directions has the smaller ``(distance, code)``
  (horizontal first at equal distance); when the target is
  unreachable, it pops every state with a finite distance;
* a state's parent is its tight predecessor with the smallest
  ``(distance, code)``, taken here as the predecessor that minimises
  ``(distance + move cost, distance, code)``;
* the path follows from the parents, and with it the waypoints and
  corners.

So :func:`lee_search` computes exact distances and derives the heap
wave's path, corners and pop count from them.  The distances come from
rounds of segmented run transforms over the window's matrices: a
distance transform along every usable run of the h-rows (two
``minimum.accumulate`` passes over ``d - x`` and ``d + x``), the corner
transfer (``+ via_penalty`` where a corner is allowed), then the same
on the v-rows and back.  The rounds stop after one in which no
distance at or below the goal's current estimate went down, or, while
the goal is unreached, after one in which no distance changed at all.
That stop is exact: if a state at distance at most the goal estimate
``G`` were still wrong, take the first wrong state on a shortest path
to it.  Its predecessor there is right and at most ``G``, so it did not
go down in the last round, and that round's relaxation of the move
from it would have lowered the wrong state to its true distance.

Exactness needs exact sums: the transforms add and subtract in another
order than the heap.  Every routing caller has integer track
coordinates and a corner price of 10, or 40 under the ``vias``
objective, and the test oracle's prices are 0.5, 10, 40 and 1e9, so
every sum is exact and the answer equals the heap wave's bit for bit.
The run segmentation adds nothing to the distances: a run is a
segment of a complex scan whose real part is the segment's id, so the
lexicographic ``minimum``/``maximum`` never mixes two segments.

:class:`LeeEngine` packages the search as a
:class:`~repro.core.engine.ConnectionEngine`, so the same code serves
as the primary engine of the standalone :class:`MazeRouter` baseline
and as the rescue engine behind ``LevelBConfig.maze_fallback``; both
price a corner at :data:`repro.core.router.MAZE_VIA_PENALTY`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro import instrument
from repro.instrument.names import (
    MAZE_NODES_EXPANDED,
    MAZE_SEARCHES,
    REGION_EXPANSIONS,
)
from repro.geometry import Interval, Path, Point
from repro.grid import RoutingGrid
from repro.grid.occupancy import _run_labels
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

State = tuple[int, int, int]  # (v, h, direction)


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
    counts the states a cell-by-cell Dijkstra wave pops.  All three are
    derived from exact distances (module notes): a state's distance is
    final once a round lowers nothing at or below the goal's estimate,
    and the path, corners and count equal the heap wave's whenever the
    sums are exact.  Once per round of the Lee wave the search calls
    :func:`~repro.core.cancel.checkpoint`.  A ``via_penalty`` that is
    not finite and > 0 raises :class:`ValueError`: a zero-cost turn
    breaks the ``(distance, code)`` pop order the count and the parents
    are derived from.
    """
    if not (via_penalty > 0 and math.isfinite(via_penalty)):
        raise ValueError(f"via_penalty must be finite and > 0, got {via_penalty!r}")
    source.position(grid)
    target.position(grid)
    v_iv, h_iv = search_window(grid, source, target, region)
    xs = grid.vtracks.coords[v_iv.lo : v_iv.hi + 1]
    ys = grid.htracks.coords[h_iv.lo : h_iv.hi + 1]
    # One availability read for the whole wave, indexed from the
    # window's low corner: ``usable_h[h, v]``, ``usable_v[v, h]`` and
    # ``corner[h, v]`` (the grid folds a wide net's footprint into all
    # three).  The distances share the layouts: ``dist_h[h, v]`` and
    # ``dist_v[v, h]``.
    usable_h, usable_v, corner = grid.window_masks(net_id, v_iv, h_iv)
    dist_h = np.full(usable_h.shape, math.inf)
    dist_v = np.full(usable_v.shape, math.inf)
    si, sj = source.v_idx - v_iv.lo, source.h_idx - h_iv.lo
    ti, tj = target.v_idx - v_iv.lo, target.h_idx - h_iv.lo
    if usable_h[sj, si]:
        dist_h[sj, si] = 0.0
    if usable_v[si, sj]:
        dist_v[si, sj] = 0.0
    # A turn costs ``via_penalty`` where a corner is allowed, inf elsewhere.
    turn = np.where(corner, via_penalty, math.inf)
    along_h = _RunTransform(usable_h, xs)
    along_v = _RunTransform(usable_v, ys)
    while True:
        checkpoint()
        before_h, before_v = dist_h.copy(), dist_v.copy()
        along_h(dist_h)
        np.minimum(dist_v, (dist_h + turn).T, out=dist_v)
        along_v(dist_v)
        np.minimum(dist_h, dist_v.T + turn, out=dist_h)
        goal = min(float(dist_h[tj, ti]), float(dist_v[ti, tj]))
        if not (
            _lowered_to(dist_h, before_h, goal) or _lowered_to(dist_v, before_v, goal)
        ):
            break

    found = goal < math.inf
    if found:
        direction = HORIZONTAL if dist_h[tj, ti] == goal else VERTICAL
        expanded = 1 + _count_before(dist_h, dist_v, goal, (ti, tj, direction))
    else:
        expanded = int(np.count_nonzero(dist_h < math.inf)) + int(
            np.count_nonzero(dist_v < math.inf)
        )
    inst = instrument.active()
    if inst.enabled:
        inst.count(MAZE_SEARCHES)
        inst.count(MAZE_NODES_EXPANDED, expanded)
    if not found:
        return None, None, expanded

    # Walk parents from the goal, then compress to waypoints at
    # direction changes.  States are window-relative; only the source's
    # have distance 0.
    states: list[State] = [(ti, tj, direction)]
    d = goal
    while d > 0:
        i, j, direction = states[-1]
        moves: list[tuple[float, float, State]] = []
        if direction == HORIZONTAL:
            row = dist_h[j]
            if i > 0:
                moves.append((xs[i] - xs[i - 1], float(row[i - 1]), (i - 1, j, HORIZONTAL)))
            if i + 1 < len(xs):
                moves.append((xs[i + 1] - xs[i], float(row[i + 1]), (i + 1, j, HORIZONTAL)))
            if corner[j, i]:
                moves.append((via_penalty, float(dist_v[i, j]), (i, j, VERTICAL)))
        else:
            row = dist_v[i]
            if j > 0:
                moves.append((ys[j] - ys[j - 1], float(row[j - 1]), (i, j - 1, VERTICAL)))
            if j + 1 < len(ys):
                moves.append((ys[j + 1] - ys[j], float(row[j + 1]), (i, j + 1, VERTICAL)))
            if corner[j, i]:
                moves.append((via_penalty, float(dist_h[j, i]), (i, j, HORIZONTAL)))
        _, d, parent = min((dp + cost, dp, p) for cost, dp, p in moves)
        states.append(parent)
    states.reverse()
    waypoints: list[Point] = [Point(xs[states[0][0]], ys[states[0][1]])]
    corners: list[tuple[int, int]] = []
    for prev, nxt in zip(states, states[1:]):
        if prev[2] != nxt[2]:  # in-place direction switch: a corner via
            corners.append((prev[0] + v_iv.lo, prev[1] + h_iv.lo))
            point = Point(xs[prev[0]], ys[prev[1]])
            if point != waypoints[-1]:
                waypoints.append(point)
    end = Point(xs[states[-1][0]], ys[states[-1][1]])
    if end != waypoints[-1]:
        waypoints.append(end)
    elif len(waypoints) == 1:
        waypoints.append(end)  # degenerate same-point path
    return waypoints, corners, expanded


class _RunTransform:
    """The distance transform along every usable run of a matrix's rows.

    Called on a distance matrix laid out like ``usable`` (a row is a
    track, a column a position on it, at coordinate ``coords[column]``),
    it lowers each usable cell to ``min(d[u] + |x - x[u]|)`` over the
    cells ``u`` of its run, in place.  The two passes are one
    ``minimum.accumulate`` over ``d - x`` from the left and one
    ``maximum.accumulate`` over ``-(d + x)`` from the right, both over
    the whole matrix at once.  Each pass scans a complex buffer whose
    real part is minus the cell's segment id, so the lexicographic
    comparison keeps every scan inside its segment and leaves the real
    parts as they were.  Segments are the maximal runs of usable cells
    (``_run_labels``) and every unusable cell alone, so an unusable
    cell's infinite distance stays infinite.
    """

    __slots__ = ("coords", "neg_coords", "scan")

    def __init__(self, usable: np.ndarray, coords: Iterable[int]) -> None:
        self.coords = np.asarray(coords, dtype=np.float64)
        self.neg_coords = -self.coords
        # Ids rise by one at every run start and at every unusable cell.
        segment = np.maximum.accumulate(_run_labels(usable).reshape(-1)) + np.cumsum(
            ~usable.reshape(-1)
        )
        self.scan = np.empty(usable.shape, dtype=np.complex128)
        self.scan.real = -segment.reshape(usable.shape)

    def __call__(self, dist: np.ndarray) -> None:
        scan, flat = self.scan, self.scan.reshape(-1)
        np.subtract(dist, self.coords, out=scan.imag)
        np.minimum.accumulate(flat, out=flat)
        np.minimum(dist, scan.imag + self.coords, out=dist)
        np.subtract(self.neg_coords, dist, out=scan.imag)
        backward = flat[::-1]
        np.maximum.accumulate(backward, out=backward)
        np.minimum(dist, self.neg_coords - scan.imag, out=dist)


def _lowered_to(dist: np.ndarray, before: np.ndarray, goal: float) -> bool:
    """Did a round lower some distance to ``goal`` or below?"""
    return bool(np.any((dist < before) & (dist <= goal)))


def _count_before(
    dist_h: np.ndarray, dist_v: np.ndarray, goal: float, state: State
) -> int:
    """States whose ``(distance, code)`` orders before the goal state's.

    ``state`` is the goal's window-relative ``(v, h, direction)``; a
    tie at the goal's distance is broken by the code.  In the ``[v, h]``
    layout of ``dist_v`` and ``dist_h.T``, the state at flat index ``f``
    has code ``2 * f + direction``.
    """
    v, h, direction = state
    goal_code = 2 * (v * dist_v.shape[1] + h) + direction
    count = int(np.count_nonzero(dist_h < goal)) + int(np.count_nonzero(dist_v < goal))
    for dist, d in ((dist_h.T, HORIZONTAL), (dist_v, VERTICAL)):
        codes = 2 * np.flatnonzero(dist == goal) + d
        count += int(np.count_nonzero(codes < goal_code))
    return count


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
    region escalation, rip-up) from :class:`LevelBRouter`
    and swaps only the per-connection engine, so benchmark comparisons
    isolate the search algorithm.  Corners cost
    :data:`~repro.core.router.MAZE_VIA_PENALTY`, scaled under
    ``objective="vias"`` exactly as for the rescue engine.
    The inherited rescue is never reached: Lee's escalation ends on the
    whole grid, and the flood that cuts it short agrees with whole-grid Lee.
    """

    def _primary_engine(self) -> ConnectionEngine:
        return LeeEngine(self._lee_via_penalty())
