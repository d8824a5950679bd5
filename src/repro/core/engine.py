"""Connection engines: search -> candidates -> select -> commit.

The level B orchestrator (:class:`repro.core.router.LevelBRouter`)
routes one two-terminal connection at a time.  *How* a connection is
found is an engine concern, expressed by the
:class:`ConnectionEngine` protocol; the orchestrator only sequences
nets, decomposes multi-terminal trees, escalates regions and rips up.
Two engines ship with the package:

:class:`MBFSEngine` (this module)
    The paper's modified breadth-first search over the Track
    Intersection Graph plus Path Selection Tree backtracking
    (sections 3.1-3.2) - fast, minimum-corner, but incomplete on
    congested grids.  The router's engine for every connection.
:class:`repro.maze.lee.LeeEngine`
    Lee/Dijkstra wave expansion - complete within a region, used both
    as the primary engine of the :class:`~repro.maze.MazeRouter`
    baseline and as the rescue engine behind the ``maze_fallback``
    config knob.  The router imports it lazily, so the core package
    never imports the maze package at load time.

Every engine commits selected paths through
:meth:`repro.grid.RoutingGrid.commit_path` inside a
:meth:`~repro.grid.RoutingGrid.transaction`, so a commit that fails
mid-path rolls back cleanly and the ``txn.*`` counters account for all
wiring mutations uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro import instrument
from repro.instrument.names import REGION_EXPANSIONS
from repro.geometry import Interval, Path
from repro.grid import RoutingGrid
from repro.core.cost import CornerCostEvaluator
from repro.core.search import MBFSearch, candidate_paths
from repro.core.select import select_best_path
from repro.core.tig import GridTerminal

#: A bounded search region in index space, or ``None`` for the whole grid.
Region = tuple[Interval, Interval] | None

#: The most corners a level B MBFS search considers.
MAX_DEPTH = 12


@dataclass(slots=True)
class RoutedConnection:
    """One committed two-terminal connection."""

    source: GridTerminal
    target: GridTerminal
    path: Path
    corners: list[tuple[int, int]]
    expansions_used: int

    @property
    def wire_length(self) -> int:
        return self.path.length

    @property
    def corner_count(self) -> int:
        return len(self.corners)


@dataclass(frozen=True)
class EngineContext:
    """Everything an engine needs from the orchestrator.

    Attributes
    ----------
    grid:
        The occupancy grid (the stored TIG) to search and commit on.
    config:
        The router's :class:`~repro.core.router.LevelBConfig`; the
        MBFS engine reads its per-track entry cap from it.
    evaluator:
        ``evaluator(net_id)`` builds a fresh
        :class:`~repro.core.cost.CornerCostEvaluator` carrying the
        net's cost-function extension terms.  An engine that selects
        by the section 3.2 cost (the MBFS) creates one per connection
        and prices each candidate batch against the grid as it stands;
        a Lee search never reads it.
    add_nodes:
        Search-effort callback; engines report nodes created/expanded
        so the orchestrator can aggregate them into the result.
    """

    grid: RoutingGrid
    config: object
    evaluator: Callable[[int], CornerCostEvaluator]
    add_nodes: Callable[[int], None]


class ConnectionEngine(abc.ABC):
    """The search -> candidates -> select -> commit contract.

    An engine either returns a committed :class:`RoutedConnection` or
    ``None`` with the grid untouched.  Engines are stateless apart from
    construction-time tuning and may be shared across nets.
    """

    @abc.abstractmethod
    def route(
        self,
        ctx: EngineContext,
        net_id: int,
        source: GridTerminal,
        target: GridTerminal,
        regions: Iterable[Region],
    ) -> RoutedConnection | None:
        """Route and commit one connection, or return ``None``.

        ``regions`` are the windows to search in turn, smallest first:
        the router's escalation schedule, or ``(None,)`` for the
        rescue's single whole-grid shot.  The engine takes the next
        window only when the last one failed.
        """


# ----------------------------------------------------------------------
# The MBFS / Path Selection Tree engine (paper sections 3.1-3.2)
# ----------------------------------------------------------------------
class MBFSEngine(ConnectionEngine):
    """Minimum-corner routing via MBFS + PST backtracking selection."""

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
        cfg = ctx.config
        evaluator = ctx.evaluator(net_id)
        for attempt, region in enumerate(regions):
            if attempt:
                instrument.count(REGION_EXPANSIONS)
            search = MBFSearch(
                grid,
                net_id,
                source,
                target,
                region=region,
                max_depth=MAX_DEPTH,
                max_entries_per_track=cfg.max_entries_per_track,
            )
            outcome = search.run()
            ctx.add_nodes(outcome.nodes_created)
            if not outcome.found:
                continue
            batch = candidate_paths(outcome, grid)
            best, _ = select_best_path(batch, evaluator)
            if best is None:
                continue
            points, corners = batch.geometry(best)
            with grid.transaction():
                grid.commit_path(net_id, points, corners)
            return RoutedConnection(
                source=source,
                target=target,
                path=Path.from_points(points),
                corners=corners,
                expansions_used=attempt,
            )
        return None

