"""The level B router: serial over-cell routing on the reserved planes.

The paper routes level B on the single metal3/metal4 pair; the router
generalizes that to N reserved-layer planes (``LevelBRouter(planes=)``,
default 1 — see docs/LAYERS.md), assigning each net to one plane up
front and then routing it entirely on that plane's grid.

Ties the pieces together exactly as section 3 describes:

1. define routing tracks over the whole layout and assign a pair of
   tracks to each net terminal;
2. order the nets (longest distance first by default);
3. for each two-terminal connection, hand the search/select/commit
   cycle to the MBFS/PST :class:`~repro.core.engine.MBFSEngine`
   (sections 3.1-3.2, committing through the ``O(t)`` occupancy update
   of section 3.4), with a whole-grid Lee shot as the rescue;
4. decompose multi-terminal nets with the Steiner-Prim builder,
   connecting each new terminal to the closest point (terminal or
   Steiner point) of the partially routed tree;
5. widen the search region and retry when a bounded search fails
   (:class:`Escalation`: a window already searched is not searched
   again, and a connection a whole-grid reachability flood proves
   unroutable is given up after its first window).

Two mechanisms re-route.  The bounded rip-up inside
:meth:`LevelBRouter.route` (``max_ripups``) completes a failed net
within one pass; :mod:`repro.iterate` re-routes a design a pass left
incomplete, each later pass inside one
:class:`~repro.grid.GridTransaction` journal.  A rip replays the net's
mutation ledger and a rollback its journal, so undoing a decision costs
time proportional to the cells it touched, never a full-grid scan.

Under a passed :func:`repro.core.cancel.deadline` a checkpoint before
each net and each search window raises ``RouteCancelled``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro import instrument
from repro.instrument.names import (
    CONNECTIONS_ROUTED,
    EVT_MAZE_FALLBACK,
    EVT_NET_FAILED,
    EVT_NET_ROUTED,
    EVT_RIPUP,
    LEVELB_UTILIZATION,
    MAZE_FALLBACKS,
    MAZE_NODES_EXPANDED,
    MAZE_SEARCHES,
    MEM_GRID_BYTES,
    NETS_FAILED,
    NETS_ROUTED,
    OCC_CELLS_TOUCHED,
    REACH_FLOODS,
    REACH_PRUNED,
    REGION_EXPANSIONS,
    RIPUPS,
    SPAN_LEVELB_NET,
    SPAN_LEVELB_ROUTE,
    SPAN_MAZE_RESCUE,
    SPAN_REACH_FLOOD,
    TXN_COMMITS,
    TXN_ROLLBACKS,
    TXN_UNDO_CELLS,
)
from repro.geometry import Interval, Rect
from repro.netlist import Net
from repro.technology import Technology, ensure_overcell_planes
from repro.core.assign import NetDemand, assign_planes
from repro.core.cancel import checkpoint
from repro.core.cost import CornerCostEvaluator, CostWeights, TrackHistory
from repro.core.engine import (
    ConnectionEngine,
    EngineContext,
    MBFSEngine,
    Region,
    RoutedConnection,
)
from repro.core.ordering import POLICIES
from repro.core.search import search_window
from repro.core.steiner import SteinerTreeBuilder, dedupe_terminals
from repro.core.tig import GridTerminal, TrackIntersectionGraph

if TYPE_CHECKING:
    from repro.grid import RoutingGrid


@dataclass(frozen=True)
class Obstacle:
    """An over-cell area excluded from level B routing.

    ``block_h`` / ``block_v`` select which layer of the pair the
    obstacle occupies: pre-existing metal4 straps block horizontal
    wiring only, metal3 blocks vertical only, and user-excluded areas
    over sensitive circuits block both (the paper's cross-talk case).
    """

    rect: Rect
    block_h: bool = True
    block_v: bool = True
    name: str = ""


@dataclass(frozen=True)
class LevelBConfig:
    """Tuning knobs for the level B router, each swept by a benchmark.

    What the router routes on, in what order and how it reports —
    ``planes``, ``ordering_policy``, ``objective`` and ``checked`` —
    are :class:`LevelBRouter` arguments instead (and
    :class:`~repro.flow.FlowParams` fields).  Values no caller varies
    are module constants (below and :data:`repro.core.engine.MAX_DEPTH`)
    or callee defaults.
    """

    weights: CostWeights = field(default_factory=CostWeights.sparse)
    max_entries_per_track: int = 8
    # The MBFS excludes paths with more than one corner per track, so
    # on congested grids a routable connection can be invisible to it
    # (the paper conditions 100% completion on the solution space).
    # The fallback re-tries failed connections with the Lee/Dijkstra
    # maze search over the whole grid before giving up.
    maze_fallback: bool = True
    # Bounded rip-up-and-reroute: when a net stays unroutable even via
    # the maze fallback, up to ``max_ripups`` neighbouring nets are
    # ripped up and rerouted after it.  A completion aid beyond the
    # paper (whose experiments assume the solution space admits 100%
    # completion); set to 0 to disable.
    max_ripups: int = 24


#: A connection's first search region is its terminals' bounding box
#: grown by this many tracks on every side.
REGION_MARGIN_TRACKS = 8

#: Each widening of a connection's search region multiplies its margin
#: (:data:`REGION_MARGIN_TRACKS` at first) by this factor.
REGION_GROWTH = 4

#: Bounded windows searched after the first, before the whole grid.
MAX_REGION_EXPANSIONS = 2

#: With more than one over-cell plane the assignment pass
#: (:mod:`repro.core.assign`) prices the deeper terminal via stacks at
#: this weight per extra via level.
PLANE_VIA_WEIGHT = 4.0

#: The corner price of every Lee search: the rescue behind
#: ``maze_fallback``, and :class:`~repro.maze.MazeRouter`'s primary
#: engine.
MAZE_VIA_PENALTY = 10.0

#: Cross-talk control (paper section 3.2's extension hook): when any
#: net is marked ``is_sensitive`` the router adds a
#: :class:`~repro.core.coupling.ParallelRunPenalty` of this weight, so
#: other nets avoid long parallel runs next to it (and it next to
#: them).  0 turns the term off.
PARALLEL_RUN_WEIGHT = 20.0

#: How much harder the "vias" objective leans on via prices than the
#: default weighting.  It scales two prices and nothing else: the plane
#: assignment's per-via-level weight (times the technology's mean via
#: cost) and :data:`MAZE_VIA_PENALTY`, the corner price of every Lee
#: search.  The knee of a measured trade-off:
#: raising it keeps cutting vias but concentrates nets on plane 0
#: until completions start to fall on saturated designs (the wide
#: bench tier loses ~9% completion by 8.0); 4.0 takes most of the via
#: savings while staying well clear of that cliff.
VIA_OBJECTIVE_SCALE = 4.0


@dataclass(slots=True)
class RoutedNet:
    """All connections realised for one net."""

    net: Net
    net_id: int
    connections: list[RoutedConnection] = field(default_factory=list)
    failed_terminals: int = 0
    #: The over-cell plane the net routes on (0 = metal3/metal4).
    plane: int = 0

    @property
    def complete(self) -> bool:
        return self.failed_terminals == 0

    @property
    def wire_length(self) -> int:
        return sum(c.wire_length for c in self.connections)

    @property
    def corner_count(self) -> int:
        return sum(c.corner_count for c in self.connections)

    @property
    def via_count(self) -> int:
        """Corner vias plus this net's terminal via stacks.

        The per-net share of :attr:`LevelBResult.total_vias`: each
        connected pin's stack climbs ``1 + 2 * plane`` via levels.
        """
        stacks = (self.net.degree - self.failed_terminals) * (1 + 2 * self.plane)
        return self.corner_count + stacks


@dataclass
class LevelBResult:
    """Aggregate outcome of a level B routing run."""

    tig: TrackIntersectionGraph
    routed: list[RoutedNet]
    elapsed_s: float
    nodes_created: int
    ripups: int = 0
    # Inputs the independent checker (repro.check) needs verbatim: the
    # layout rectangle and the declared exclusions.  Carried on the
    # result so verification never reverse-engineers them from
    # occupancy state.
    bounds: Rect | None = None
    obstacles: tuple[Obstacle, ...] = ()
    #: The technology the run routed under.  Carried so the independent
    #: checker (repro.check) can enforce its width-dependent spacing
    #: and min-width rules against the extracted geometry, and so the
    #: reports name and time each plane by its own layers.
    technology: Technology | None = None

    def __post_init__(self) -> None:
        # Name index for O(1) net_result lookups.  Net names are
        # guaranteed unique by LevelBRouter; a direct construction with
        # duplicates fails loudly here instead of shadowing a result.
        index: dict[str, RoutedNet] = {}
        for r in self.routed:
            if r.net.name in index:
                raise ValueError(f"duplicate net name {r.net.name!r} in result")
            index[r.net.name] = r
        self._by_name = index

    @property
    def total_wire_length(self) -> int:
        return sum(r.wire_length for r in self.routed)

    @property
    def total_corners(self) -> int:
        return sum(r.corner_count for r in self.routed)

    @property
    def num_planes(self) -> int:
        """Over-cell planes the run routed on."""
        return self.tig.planes.num_planes

    @property
    def routed_technology(self) -> Technology:
        """:attr:`technology`, or for a hand-built result that carries
        none, the four-layer preset grown to :attr:`num_planes`."""
        return self.technology or ensure_overcell_planes(
            Technology.four_layer(), self.num_planes
        )

    def plane_labels(self) -> list[str]:
        """Each routed plane's layer pair, lowest first: ``"metal3/metal4"``
        under the presets.  Every report, legend and CLI line that names
        a plane reads it here."""
        tech = self.routed_technology
        return [
            "/".join(layer.name for layer in tech.plane(p))
            for p in range(self.num_planes)
        ]

    @property
    def total_vias(self) -> int:
        """Corner vias plus the terminal via stacks of connected pins:
        the sum of :attr:`RoutedNet.via_count`."""
        return sum(r.via_count for r in self.routed)

    def nets_on_plane(self, plane: int) -> list[RoutedNet]:
        """Routed nets assigned to one over-cell plane."""
        return [r for r in self.routed if r.plane == plane]

    @property
    def nets_attempted(self) -> int:
        return len(self.routed)

    @property
    def nets_completed(self) -> int:
        return sum(1 for r in self.routed if r.complete)

    @property
    def completion_rate(self) -> float:
        if not self.routed:
            return 1.0
        return self.nets_completed / len(self.routed)

    def net_result(self, name: str) -> RoutedNet:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"net {name!r} was not routed at level B") from None


def coupling_terms(net_id: int, sensitive_ids: frozenset[int]) -> tuple:
    """Cost-function extension terms for one net's connections.

    A sensitive net keeps clear of *all* foreign wiring; every other
    net keeps clear of the sensitive nets.
    """
    if not sensitive_ids or PARALLEL_RUN_WEIGHT <= 0:
        return ()
    from repro.core.coupling import ParallelRunPenalty

    if net_id in sensitive_ids:
        targets = None  # avoid everyone
    else:
        targets = sensitive_ids - {net_id}
    return (
        ParallelRunPenalty(targets, weight=PARALLEL_RUN_WEIGHT, exclude=net_id),
    )


@dataclass
class Escalation:
    """The windows one connection searches, as its engine consumes them.

    Iterating yields ``regions`` in order, smallest first, with two
    exact cuts.  A region whose window (:func:`search_window`) equals
    the last one searched is skipped: engines are deterministic and a
    failed search leaves the grid unchanged, so it would fail again.
    And once the first window has failed, one reachability flood
    (:meth:`RoutingGrid.reachable`) asks whether the target can be
    reached on the whole grid at all; when it cannot, iteration stops
    and ``unreachable`` tells the router to skip the rescue as well.
    Every path a search or the rescue could find is a path of the
    flood, so neither cut changes what gets routed.  Each window is
    preceded by a :func:`~repro.core.cancel.checkpoint`.
    """

    grid: "RoutingGrid"
    net_id: int
    source: GridTerminal
    target: GridTerminal
    regions: Iterable[Region]
    #: Set when the flood proved the target unreachable.
    unreachable: bool = False

    def __iter__(self) -> Iterator[Region]:
        grid, source, target = self.grid, self.source, self.target
        searched: tuple[Interval, Interval] | None = None
        for region in self.regions:
            window = search_window(grid, source, target, region)
            if searched is None:
                searched = window
                checkpoint()
                yield region
                if not self._reachable():
                    self.unreachable = True
                    return
            elif window != searched:
                searched = window
                checkpoint()
                yield region

    def _reachable(self) -> bool:
        """One whole-grid flood for the connection, counted."""
        source, target = self.source, self.target
        with instrument.span(SPAN_REACH_FLOOD):
            found = self.grid.reachable(
                self.net_id,
                (source.v_idx, source.h_idx),
                (target.v_idx, target.h_idx),
            )
        instrument.count(REACH_FLOODS)
        if not found:
            instrument.count(REACH_PRUNED)
        return found


def route_net_terminals(
    grid: "RoutingGrid",
    net_id: int,
    terminals: Sequence[GridTerminal],
    connect: Callable[[GridTerminal, GridTerminal], RoutedConnection | None],
) -> tuple[list[RoutedConnection], int]:
    """Decompose one net into two-terminal connections and route them.

    Runs terminal de-duplication, the two-terminal fast path and the
    Steiner-Prim loop.  ``connect`` routes a single connection (engine
    choice and rescue policy stay with the caller).  Returns the
    committed connections and the count of terminals left unreached.
    """
    for t in terminals:
        grid.mark_terminal_routed(t.v_idx, t.h_idx)
    connections: list[RoutedConnection] = []
    failed = 0
    unique = dedupe_terminals(terminals)
    if len(unique) < 2:
        return connections, failed  # all pins coincide; nothing to wire
    if len(unique) == 2:
        conn = connect(unique[0], unique[1])
        if conn is None:
            failed += 1
        else:
            connections.append(conn)
        return connections, failed
    builder = SteinerTreeBuilder(grid, net_id, unique)
    while not builder.done:
        source = builder.next_source()
        conn = None
        for target in builder.attach_candidates(source):
            conn = connect(source, target)
            if conn is not None:
                break
        if conn is None:
            builder.fail(source)
            failed += 1
        else:
            builder.commit(source, conn.path.waypoints())
            connections.append(conn)
    return connections, failed


class LevelBRouter:
    """Routes a set of nets over the whole layout area.

    Parameters
    ----------
    bounds:
        The fixed layout rectangle (known after level A, section 2).
    nets:
        Set B nets; their pins must have placed positions.  Net names
        must be unique (results are indexed by name).
    technology:
        Supplies the over-cell plane stack (pitches, layer names);
        must carry at least ``planes`` reserved pairs above
        metal1/metal2.  Defaults to the paper's four-layer stack,
        grown to ``planes`` pairs by
        :func:`~repro.technology.ensure_overcell_planes` as every flow
        grows it.
    obstacles:
        Over-cell exclusions (:class:`Obstacle` or bare :class:`Rect`).
    config:
        Router tuning; defaults follow the paper's sparse setting.
    planes:
        Over-cell planes to route on (docs/LAYERS.md).  The default of
        1 is the paper's single metal3/metal4 plane; with more, the
        assignment pass (:mod:`repro.core.assign`) distributes nets
        across them by estimated congestion.
    ordering_policy:
        The :data:`~repro.core.ordering.POLICIES` name that orders the
        nets: :meth:`route` routes in ``POLICIES[ordering_policy](nets,
        {})``, and :mod:`repro.iterate` asks the same policy for every
        later pass.
        The default is the paper's longest-distance-first criterion.
    objective:
        ``"wire"`` (the paper's wire-length-led cost, the default) or
        ``"vias"`` (via minimization, docs/TECHNOLOGY.md: the plane
        assignment's via weight times :data:`VIA_OBJECTIVE_SCALE` and
        the technology's mean via cost, Lee corners at
        :data:`MAZE_VIA_PENALTY` times :data:`VIA_OBJECTIVE_SCALE`).
    checked:
        Checked mode (:mod:`repro.check`): sanitize every net commit
        and audit the grid bookkeeping, raising ``CheckFailure`` on the
        first violation.  Off by default - it adds a full ledger replay
        per commit (docs/VERIFICATION.md has the measured cost).
    """

    def __init__(
        self,
        bounds: Rect,
        nets: Sequence[Net],
        *,
        technology: Technology | None = None,
        obstacles: Iterable[Obstacle | Rect] = (),
        config: LevelBConfig | None = None,
        planes: int = 1,
        ordering_policy: str = "longest-first",
        objective: str = "wire",
        checked: bool = False,
    ) -> None:
        self.bounds = bounds
        self.config = config or LevelBConfig()
        if planes < 1:
            raise ValueError(f"planes must be >= 1, got {planes}")
        if ordering_policy not in POLICIES:
            raise ValueError(
                f"unknown ordering policy {ordering_policy!r} "
                f"(available: {sorted(POLICIES)})"
            )
        if objective not in ("wire", "vias"):
            raise ValueError(
                f"objective must be 'wire' or 'vias', got {objective!r}"
            )
        self.ordering_policy = ordering_policy
        self.objective = objective
        self.checked = checked
        tech = technology or ensure_overcell_planes(
            Technology.four_layer(), planes
        )
        if tech.num_overcell_planes < planes:
            raise ValueError(
                f"level B routing on {planes} planes needs a "
                f"{2 + 2 * planes}-layer technology, "
                f"{tech.name} has {tech.num_layers}"
            )
        self.technology = tech
        self.nets = [n for n in nets if n.degree >= 2]
        seen_names = set()
        for net in self.nets:
            if net.name in seen_names:
                raise ValueError(
                    f"duplicate net name {net.name!r}: level B results are "
                    "indexed by name, so names must be unique"
                )
            seen_names.add(net.name)
        terminal_points = [p for net in self.nets for p in net.pin_positions()]
        for p in terminal_points:
            if not bounds.contains_point(p):
                raise ValueError(f"terminal {p} outside layout bounds {bounds}")
        # All planes share the track lattice generated at plane 0's
        # (metal3/metal4) pitch; upper planes' coarser physical pitch
        # enters the area/delay models, not the grid (docs/LAYERS.md).
        # Net ids run 1..len(self.nets) and no intersection holds more
        # unrouted terminals than one net has: these size the arrays.
        vertical, horizontal = tech.plane(0)
        self.tig = TrackIntersectionGraph.over_area(
            bounds,
            v_pitch=vertical.pitch,
            h_pitch=horizontal.pitch,
            terminal_points=terminal_points,
            num_planes=planes,
            num_nets=len(self.nets),
            max_degree=max((n.degree for n in self.nets), default=0),
        )
        self.obstacles: list[Obstacle] = []
        for obs in obstacles:
            if isinstance(obs, Rect):
                obs = Obstacle(rect=obs)
            self.obstacles.append(obs)
            self.tig.add_obstacle(
                obs.rect, block_h=obs.block_h, block_v=obs.block_v
            )
        self._net_ids: dict[Net, int] = {
            net: i + 1 for i, net in enumerate(sorted(self.nets, key=lambda n: n.name))
        }
        # Plane assignment is decided before any terminal is reserved:
        # the pass sees only pin geometry, so it is independent of net
        # registration order (and trivially all-plane-0 when planes=1).
        # Under objective="vias" the assignment's per-via-level price is
        # scaled up by the technology's actual via costs, pulling nets
        # toward shallow planes (fewer stack-via levels per pin).
        via_weight = PLANE_VIA_WEIGHT
        if objective == "vias":
            mean_via_cost = sum(v.cost for v in tech.vias) / len(tech.vias)
            via_weight *= VIA_OBJECTIVE_SCALE * mean_via_cost
        plane_assignment = assign_planes(
            [
                NetDemand(net_id, tuple(net.pin_positions()))
                for net, net_id in self._net_ids.items()
            ],
            bounds,
            planes,
            via_weight,
        )
        # Width-class footprints: each net's (span, guard) claim on its
        # assigned plane, (1, 0) for signal nets on every preset.
        for net, net_id in self._net_ids.items():
            plane = plane_assignment[net_id]
            self.tig.register_net(
                net_id,
                net.pin_positions(),
                plane,
                footprint=tech.net_footprint(net.net_class, plane),
            )
        self._nodes_created = 0
        self._sensitive_ids = frozenset(
            self._net_ids[n] for n in self.nets if n.is_sensitive
        )
        #: Negotiated-congestion history, one :class:`TrackHistory` per
        #: plane, attached by :mod:`repro.iterate` between iterations.
        #: ``None`` (the default) keeps every evaluator — and therefore
        #: every routed path — bit-identical to one-pass routing.
        self.history: tuple[TrackHistory, ...] | None = None
        self._engine: ConnectionEngine = self._primary_engine()
        self._rescue: ConnectionEngine | None = None
        # One engine context per plane, each bound to that plane's
        # occupancy grid.
        self._ctxs = tuple(
            EngineContext(
                grid=self.tig.planes[plane],
                config=self.config,
                evaluator=self._evaluator_for,
                add_nodes=self._add_nodes,
            )
            for plane in range(planes)
        )

    # ------------------------------------------------------------------
    # Engine wiring
    # ------------------------------------------------------------------
    def _primary_engine(self) -> ConnectionEngine:
        """The engine routing every connection: the paper's MBFS/PST."""
        return MBFSEngine()

    def _rescue_engine(self) -> ConnectionEngine:
        """The whole-grid Lee engine behind ``maze_fallback`` (lazy).

        Imported on first use, so loading :mod:`repro.core` never loads
        :mod:`repro.maze`.
        """
        if self._rescue is None:
            from repro.maze.lee import LeeEngine

            self._rescue = LeeEngine(self._lee_via_penalty())
        return self._rescue

    def _lee_via_penalty(self) -> float:
        """Every Lee corner's price; under "vias" each corner is a via."""
        scale = VIA_OBJECTIVE_SCALE if self.objective == "vias" else 1.0
        return MAZE_VIA_PENALTY * scale

    def _add_nodes(self, n: int) -> None:
        self._nodes_created += n

    def _evaluator_for(self, net_id: int) -> CornerCostEvaluator:
        """A fresh cost evaluator on the net's plane grid, carrying the
        net's coupling terms and then, under iterate, its plane's history."""
        terms = coupling_terms(net_id, self._sensitive_ids)
        if self.history is not None:
            terms += (self.history[self.tig.plane_of(net_id)],)
        return CornerCostEvaluator(
            self.tig.grid_of(net_id), self.config.weights, extra_terms=terms
        )

    def _ctx_for(self, net_id: int) -> EngineContext:
        """The engine context of a net's plane."""
        return self._ctxs[self.tig.plane_of(net_id)]

    # ------------------------------------------------------------------
    def net_id(self, net: Net) -> int:
        return self._net_ids[net]

    def route(self, *, order: Sequence[Net] | None = None) -> LevelBResult:
        """Route every net in the ``ordering_policy`` order.

        ``order`` replaces that order with an explicit sequence (the
        iterate loop's fed-back policy orders, docs/ITERATION.md, or
        any user criterion).  It must be a permutation of this router's
        nets; ``None`` routes in ``POLICIES[ordering_policy](nets, {})``.

        Nets that fail outright trigger the bounded rip-up loop: the
        blockers crowding the failed terminals are unrouted, the failed
        net retries first, and the victims re-route after it.  The work
        queue is a plain deque of the nets not yet routed: victims are
        always routed nets and the failed net has just been popped, so
        a requeue never duplicates an entry.

        The whole run executes inside a ``levelb.route`` instrumentation
        span; ``elapsed_s`` is the span's wall time (measured whether or
        not a collector is active).
        """
        # Journal-balance audits must tolerate an outer transaction
        # (repro.iterate wraps each later pass of this method in one).
        ambient_txn = self.tig.planes.in_transaction
        with instrument.span(SPAN_LEVELB_ROUTE) as route_span:
            # Declare the level B catalogue so exported profiles carry
            # these keys (at 0) even on runs where they never fire.
            instrument.active().declare(
                CONNECTIONS_ROUTED,
                MAZE_FALLBACKS,
                MAZE_NODES_EXPANDED,
                MAZE_SEARCHES,
                NETS_FAILED,
                NETS_ROUTED,
                OCC_CELLS_TOUCHED,
                REACH_FLOODS,
                REACH_PRUNED,
                REGION_EXPANSIONS,
                RIPUPS,
                TXN_COMMITS,
                TXN_ROLLBACKS,
                TXN_UNDO_CELLS,
            )
            if order is None:
                ordered = POLICIES[self.ordering_policy](self.nets, {})
            else:
                ordered = list(order)
                if len(ordered) != len(self.nets) or set(ordered) != set(
                    self.nets
                ):
                    raise ValueError(
                        "explicit route order must be a permutation of the "
                        "router's nets"
                    )
            queue = deque(ordered)
            results: dict[Net, RoutedNet] = {}
            ripups_left = self.config.max_ripups
            ripup_count = 0
            while queue:
                net = queue.popleft()
                checkpoint()
                with instrument.span(SPAN_LEVELB_NET):
                    outcome = self._route_net(net)
                results[net] = outcome
                if self.checked:
                    self._sanitize(outcome, ambient_txn)
                if outcome.complete:
                    instrument.event(
                        EVT_NET_ROUTED,
                        net=net.name,
                        wire_length=outcome.wire_length,
                        corners=outcome.corner_count,
                    )
                    continue
                instrument.event(
                    EVT_NET_FAILED,
                    net=net.name,
                    failed_terminals=outcome.failed_terminals,
                )
                if ripups_left <= 0:
                    continue
                victims = self._pick_ripup_victims(net, results)
                if not victims:
                    continue
                ripups_left -= len(victims)
                ripup_count += len(victims)
                instrument.count(RIPUPS, len(victims))
                instrument.event(
                    EVT_RIPUP,
                    net=net.name,
                    victims=[v.name for v in victims],
                )
                requeued = [net, *victims]
                for ripped in requeued:
                    self.unroute(ripped)
                    del results[ripped]
                queue.extendleft(reversed(requeued))
            routed = [results[net] for net in self.nets if net in results]
            inst = instrument.active()
            if inst.enabled:
                inst.count(NETS_ROUTED, sum(1 for r in routed if r.complete))
                inst.count(NETS_FAILED, sum(1 for r in routed if not r.complete))
                inst.gauge(LEVELB_UTILIZATION, self.tig.planes.utilization())
                inst.gauge(
                    MEM_GRID_BYTES, float(self.tig.planes.memory_bytes())
                )
        return LevelBResult(
            tig=self.tig,
            routed=routed,
            elapsed_s=route_span.elapsed_s,
            nodes_created=self._nodes_created,
            ripups=ripup_count,
            bounds=self.bounds,
            obstacles=tuple(self.obstacles),
            technology=self.technology,
        )

    def _sanitize(self, outcome: RoutedNet, ambient_txn: bool) -> None:
        """Checked mode: sanitize one committed net, raise on violations.

        Runs the paper invariants of the net's own connections plus the
        grid bookkeeping audit (ledger replay, journal balance) through
        :func:`repro.check.sanitize_commit`; violations raise
        :class:`repro.check.CheckFailure` at the first bad commit
        instead of surfacing as mystery shorts later.
        """
        from repro.check import CheckFailure, sanitize_commit

        violations = sanitize_commit(
            self.tig.grid_of(outcome.net_id), outcome, in_ambient_txn=ambient_txn
        )
        if violations:
            raise CheckFailure(violations)

    def _pick_ripup_victims(
        self, net: Net, results: dict[Net, RoutedNet]
    ) -> list[Net]:
        """Routed nets crowding the failed net's terminals (at most 3).

        Victims are drawn from the failed net's *own plane*: ripping a
        net routed elsewhere cannot free the cells this net needs (an
        upper-plane net's through-stack blockage is terminal-anchored
        and survives its rip).
        """
        net_id = self._net_ids[net]
        plane = self.tig.plane_of(net_id)
        grid = self.tig.planes[plane]
        counts: dict[int, int] = {}
        for term in self.tig.terminals_of(net_id):
            for owner in grid.owners_near(term.v_idx, term.h_idx, radius=2):
                if owner != net_id and self.tig.plane_of(owner) == plane:
                    counts[owner] = counts.get(owner, 0) + 1
        by_id = {self._net_ids[n]: n for n in self.nets}
        ranked = sorted(counts, key=lambda o: (-counts[o], o))
        victims = []
        for owner in ranked:
            victim = by_id.get(owner)
            if victim is not None and victim in results:
                victims.append(victim)
            if len(victims) == 3:
                break
        return victims

    def unroute(self, net: Net) -> None:
        """Rip a net's wiring off the grid and re-reserve its terminals.

        After ripping every net the grid holds terminals only, exactly
        the state a fresh :meth:`route` starts from.  ``rip_net``
        replays the net's mutation ledger, so the cost is proportional
        to the cells the net actually occupied.  Only the net's own
        plane is ripped: its through-stack blockage on lower planes
        belongs to its terminals, which persist across rips.  The rip is
        permanent unless the caller holds an open transaction.
        """
        net_id = self._net_ids[net]
        grid = self.tig.grid_of(net_id)
        # repro: allow[txn.commit] no ambient transaction in one-pass routing: the in-pass rip-up's rip is permanent and requeues the net at once; repro.iterate's later passes hold planes.begin() around every rip
        grid.rip_net(net_id)
        for term in self.tig.terminals_of(net_id):
            grid.reserve_terminal(term.v_idx, term.h_idx, net_id)

    # ------------------------------------------------------------------
    def _route_net(self, net: Net) -> RoutedNet:
        net_id = self._net_ids[net]
        connections, failed = route_net_terminals(
            self.tig.grid_of(net_id),
            net_id,
            self.tig.terminals_of(net_id),
            lambda source, target: self._route_connection(net_id, source, target),
        )
        # Terminals a wide net's claim made unreachable never entered
        # the routable set; they count as failed from the outset.
        failed += len(self.tig.pinched_terminals(net_id))
        return RoutedNet(
            net=net,
            net_id=net_id,
            connections=connections,
            failed_terminals=failed,
            plane=self.tig.plane_of(net_id),
        )

    def _route_connection(
        self, net_id: int, source: GridTerminal, target: GridTerminal
    ) -> RoutedConnection | None:
        """One connection through the primary engine, rescue as needed."""
        ctx = self._ctx_for(net_id)
        windows = Escalation(
            ctx.grid, net_id, source, target, self._regions(source, target)
        )
        conn = self._engine.route(ctx, net_id, source, target, windows)
        if conn is None and self.config.maze_fallback and not windows.unreachable:
            conn = self._maze_rescue(net_id, source, target)
        if conn is not None:
            instrument.count(CONNECTIONS_ROUTED)
        return conn

    def _maze_rescue(
        self, net_id: int, source: GridTerminal, target: GridTerminal
    ) -> RoutedConnection | None:
        """Last-resort whole-grid shot with the rescue engine.

        The Lee search prices each corner at :data:`MAZE_VIA_PENALTY`
        (scaled under ``objective="vias"``), not with the section 3.2
        model; ``expansions_used == -1`` marks the
        rescue.
        """
        instrument.count(MAZE_FALLBACKS)
        with instrument.span(SPAN_MAZE_RESCUE):
            conn = self._rescue_engine().route(
                self._ctx_for(net_id), net_id, source, target, (None,)
            )
        instrument.event(
            EVT_MAZE_FALLBACK, net_id=net_id, found=conn is not None
        )
        if conn is not None:
            conn.expansions_used = -1  # marks a maze rescue
        return conn

    def _regions(
        self, source: GridTerminal, target: GridTerminal
    ) -> Iterator[Region]:
        """Index-space search regions, smallest first, whole grid last.

        The paper's schedule; :class:`Escalation` decides which of them
        are searched.
        """
        v_box = Interval.spanning(source.v_idx, target.v_idx)
        h_box = Interval.spanning(source.h_idx, target.h_idx)
        margin = REGION_MARGIN_TRACKS
        for _ in range(MAX_REGION_EXPANSIONS + 1):
            yield (v_box.expanded(margin), h_box.expanded(margin))
            margin *= REGION_GROWTH
        yield None  # unbounded: the entire layout

