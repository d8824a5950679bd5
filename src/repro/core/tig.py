"""The Track Intersection Graph (TIG).

Paper, section 3.1: *"The solution space for level B routing is
represented by an undirected bipartite graph G = (V, E) called Track
Intersection Graph.  The set of vertices V consists of two mutually
exclusive subsets Vv and Vh, where each vi in Vv represents a vertical
routing track and each vj in Vh represents a horizontal track.  The
edges e = (vi, vj) correspond to the intersection of a vertical with a
horizontal track that can be used for routing."*

The graph is stored implicitly: its state lives in the ``O(h*v)``
occupancy array (:class:`repro.grid.RoutingGrid`), exactly as the paper
describes in section 3.4.  This module provides the graph-level view on
top of that array - vertex/edge enumeration for small instances, the
terminal abstraction (a terminal *is* a TIG edge), and obstacle
registration - while the search (:mod:`repro.core.search`) reads the
array directly for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

from repro.geometry import Point, Rect
from repro.grid import FREE, PlaneSet, RoutingGrid, TrackSet


@dataclass(frozen=True, slots=True)
class GridTerminal:
    """A net terminal expressed as a TIG edge ``(vertical, horizontal)``.

    ``v_idx``/``h_idx`` index the grid's vertical/horizontal track sets;
    the terminal sits at their intersection.
    """

    v_idx: int
    h_idx: int

    def position(self, grid: RoutingGrid) -> Point:
        x, y = grid.coord_of(self.v_idx, self.h_idx)
        return Point(x, y)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"(v{self.v_idx},h{self.h_idx})"


class TrackIntersectionGraph:
    """Tracks, occupancy and terminals for one level B instance.

    Vertex naming follows the paper's figures: vertical tracks are
    ``v1..vn`` (left to right), horizontal tracks ``h1..hm`` (bottom to
    top), both 1-based.
    """

    def __init__(
        self,
        vtracks: TrackSet,
        htracks: TrackSet,
        num_planes: int = 1,
        num_nets: int | None = None,
        max_degree: int | None = None,
    ) -> None:
        #: One occupancy grid per over-cell plane, shared track sets,
        #: arrays sized to net ids ``1..num_nets`` and to ``max_degree``
        #: terminals at one intersection.
        self.planes = PlaneSet(vtracks, htracks, num_planes, num_nets, max_degree)
        #: Plane 0's grid — the paper's metal3/metal4 array.  Kept as a
        #: direct attribute because the single-plane stack (the default)
        #: reads and mutates it everywhere.
        self.grid: RoutingGrid = self.planes[0]
        self._terminals: dict[int, list[GridTerminal]] = {}
        # Terminals whose intersection a wide net's expanded claim
        # already covers (see register_terminal): recorded but never
        # reserved or routed, counted as failed by the router.
        self._pinched: dict[int, list[GridTerminal]] = {}
        self._plane_of: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def over_area(
        bounds: Rect,
        v_pitch: int,
        h_pitch: int,
        terminal_points: Iterable[Point] = (),
        num_planes: int = 1,
        num_nets: int | None = None,
        max_degree: int | None = None,
    ) -> "TrackIntersectionGraph":
        """Build the grid over ``bounds``.

        A uniform lattice at the given pitches is laid down, then one
        vertical and one horizontal track is threaded through every
        terminal (the paper assigns "a pair of horizontal and vertical
        tracks to each net terminal").  With ``num_planes > 1`` every
        over-cell plane shares this lattice (see
        :class:`repro.grid.PlaneSet` for why).  ``num_nets`` (the
        largest net id) and ``max_degree`` (the most terminals of one
        net) size the grids' arrays; ``None`` keeps the widest default.
        """
        pts = list(terminal_points)
        vtracks = TrackSet.uniform(
            bounds.x1, bounds.x2, v_pitch, extra=(p.x for p in pts)
        )
        htracks = TrackSet.uniform(
            bounds.y1, bounds.y2, h_pitch, extra=(p.y for p in pts)
        )
        return TrackIntersectionGraph(
            vtracks, htracks, num_planes, num_nets, max_degree
        )

    def terminal_at(self, point: Point) -> GridTerminal:
        """The TIG edge for a terminal at geometric ``point``.

        The tracks through the point must exist (``over_area`` threads
        them); a miss indicates an upstream bookkeeping bug and raises.
        """
        return GridTerminal(
            v_idx=self.grid.vtracks.index_of(point.x),
            h_idx=self.grid.htracks.index_of(point.y),
        )

    def register_terminal(
        self, net_id: int, terminal: GridTerminal, plane: int = 0
    ) -> None:
        """Reserve a terminal's intersection for ``net_id`` on ``plane``.

        The terminal's via stack climbs from the cell pins all the way
        to its net's plane, so besides reserving the intersection on
        the routing plane it *blocks* the same intersection on every
        plane below: the through-stack physically occupies those
        layers.  On plane 0 (the only plane of the default stack) no
        blockage is issued and the call is exactly the historical one.

        A terminal whose intersection (on the routing plane or any
        stack level below) is already inside a *wide* net's expanded
        claim cannot be reserved: pins sit at fixed physical positions
        the width model cannot move.  Such pinched terminals are
        recorded separately — the router skips them and counts them as
        failed — instead of raising, which would kill the whole run
        over one unroutable pin.  The pin's stack still stands, so the
        intersection becomes a keep-out on every level it spans
        (:meth:`~repro.grid.RoutingGrid.add_keepout`): no other net may
        wire through it.  A collision with a single-track net still
        raises: distinct pins always get distinct tracks, so that can
        only be a genuine design conflict.
        """
        if self._pinched_by_wide(net_id, terminal, plane):
            self._pinched.setdefault(net_id, []).append(terminal)
            for p in range(plane + 1):
                self.planes[p].add_keepout(terminal.v_idx, terminal.h_idx, net_id)
            return
        self.planes[plane].reserve_terminal(
            terminal.v_idx, terminal.h_idx, net_id
        )
        for below in range(plane):
            self.planes[below].occupy_corner(
                terminal.v_idx, terminal.h_idx, net_id
            )
        self._terminals.setdefault(net_id, []).append(terminal)

    def _pinched_by_wide(
        self, net_id: int, terminal: GridTerminal, plane: int
    ) -> bool:
        """Is the terminal's stack blocked by a wide net's footprint?"""
        v, h = terminal.v_idx, terminal.h_idx
        for p in range(plane + 1):
            grid = self.planes[p]
            for owner in (grid.h_slot(v, h), grid.v_slot(v, h)):
                if owner in (FREE, net_id):
                    continue
                if owner > 0 and grid.footprint_of(owner) != (1, 0):
                    return True
        return False

    def register_net(
        self,
        net_id: int,
        points: Sequence[Point],
        plane: int = 0,
        footprint: tuple[int, int] = (1, 0),
    ) -> list[GridTerminal]:
        """Register all terminals of a net by geometric position.

        ``footprint`` is the net's ``(span, guard)`` track claim from
        its width class (:meth:`~repro.technology.Technology.
        net_footprint`); it is declared on the net's *own* plane grid
        before any terminal is reserved, so the terminal anchors claim
        the widened block there.  Pass-through via stacks on the planes
        below stay point claims — a stack is a point feature, and
        widening it would let unrelated nets' stacks collide at fixed
        pin positions.
        """
        self._plane_of[net_id] = plane
        if footprint != (1, 0):
            span, guard = footprint
            self.planes[plane].set_net_footprint(net_id, span, guard)
        terminals = [self.terminal_at(p) for p in points]
        for t in terminals:
            self.register_terminal(net_id, t, plane)
        return terminals

    def plane_of(self, net_id: int) -> int:
        """The over-cell plane a registered net routes on (default 0)."""
        return self._plane_of.get(net_id, 0)

    def grid_of(self, net_id: int) -> RoutingGrid:
        """The occupancy grid of a registered net's plane."""
        return self.planes[self.plane_of(net_id)]

    def add_obstacle(
        self, rect: Rect, *, block_h: bool = True, block_v: bool = True
    ) -> int:
        """Exclude an over-cell area from routing (see paper section 3).

        Obstacles model pre-existing wiring inside macros (block a
        single direction) or user-excluded areas over sensitive
        circuits (block both).  Absent per-plane obstacle input the
        exclusion is conservative and applies to *every* plane of the
        stack.  Returns the blocked intersection count (per plane).
        """
        return self.planes.add_obstacle(rect, block_h=block_h, block_v=block_v)

    # ------------------------------------------------------------------
    # Graph-level queries (used by tests, figures and small instances)
    # ------------------------------------------------------------------
    def terminals_of(self, net_id: int) -> list[GridTerminal]:
        return list(self._terminals.get(net_id, []))

    def pinched_terminals(self, net_id: int) -> list[GridTerminal]:
        """Terminals a wide net's claim made unreachable (usually none)."""
        return list(self._pinched.get(net_id, []))

    def all_terminals(self) -> dict[int, list[GridTerminal]]:
        return {k: list(v) for k, v in self._terminals.items()}

    def terminal_windows(self) -> dict[int, tuple[int, int, int, int]]:
        """Every net's terminal bounding box in track index space.

        Maps ``net_id`` to inclusive ``(v_lo, v_hi, h_lo, h_hi)`` for
        each net with at least one terminal: the window the iterate
        loop's coarse regions charge demand to (docs/ITERATION.md).
        """
        windows: dict[int, tuple[int, int, int, int]] = {}
        for net_id, terminals in self._terminals.items():
            if not terminals:
                continue
            vs = [t.v_idx for t in terminals]
            hs = [t.h_idx for t in terminals]
            windows[net_id] = (min(vs), max(vs), min(hs), max(hs))
        return windows

    def vertex_names(self) -> tuple[list[str], list[str]]:
        """The paper-style vertex names ``([v1..], [h1..])``."""
        vs = [f"v{i + 1}" for i in range(self.grid.num_vtracks)]
        hs = [f"h{j + 1}" for j in range(self.grid.num_htracks)]
        return vs, hs

    def edge_usable(self, v_idx: int, h_idx: int, net_id: int = FREE) -> bool:
        """Is the TIG edge (intersection) usable for routing?

        With the default ``net_id`` of ``FREE`` only fully free
        intersections qualify; passing a net id also admits
        intersections that net already owns.
        """
        if net_id == FREE:
            return (
                self.grid.h_slot(v_idx, h_idx) == FREE
                and self.grid.v_slot(v_idx, h_idx) == FREE
            )
        return self.grid.corner_free(v_idx, h_idx, net_id)

    def edges(self, net_id: int = FREE) -> Iterator[tuple[int, int]]:
        """All usable TIG edges as ``(v_idx, h_idx)`` pairs.

        Enumeration is ``O(h*v)``; intended for small didactic
        instances, figures and tests, not the router hot path.
        """
        for v in range(self.grid.num_vtracks):
            for h in range(self.grid.num_htracks):
                if self.edge_usable(v, h, net_id):
                    yield (v, h)

    def degree(self, vertex: str) -> int:
        """Degree of a named vertex (``"v3"`` / ``"h2"``) in the TIG."""
        kind, idx = vertex[0], int(vertex[1:]) - 1
        if kind == "v":
            return sum(
                1
                for h in range(self.grid.num_htracks)
                if self.edge_usable(idx, h)
            )
        if kind == "h":
            return sum(
                1
                for v in range(self.grid.num_vtracks)
                if self.edge_usable(v, idx)
            )
        raise ValueError(f"bad vertex name {vertex!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TIG({self.grid.num_vtracks} v-tracks x "
            f"{self.grid.num_htracks} h-tracks, "
            f"{len(self._terminals)} nets registered)"
        )
