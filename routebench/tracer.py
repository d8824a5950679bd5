"""Per-layer tracing by wrapping the router's public layer functions.

The traced run installs a :class:`Tracer` that replaces each function in
:func:`layer_patches` with a timing wrapper at the name its caller looks
up, and restores every original when the run ends.  Nothing under
``src/`` changes: the wrappers only observe (call counts, wall time,
returned values), so routed output is identical with and without them.

Self time is a call's wall time minus the wall time of the wrapped calls
nested inside it on the same thread.  Each thread keeps its own nesting
stack, so the in-process serve run (handler and worker threads) is
accounted per thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

Observer = Callable[["Tracer", Any], None]


def _found(tracer: "Tracer", result: Any) -> None:
    tracer.tally("search.found", result.found)


def _mbfs_failed(tracer: "Tracer", result: Any) -> None:
    tracer.tally("engine.mbfs_failed", result is None)


def _maze_found(tracer: "Tracer", result: Any) -> None:
    tracer.tally("maze.found", result is not None)


def _candidates(tracer: "Tracer", result: Any) -> None:
    tracer.tally("select.candidates", len(result))


def _iterate_report(tracer: "Tracer", result: Any) -> None:
    _, report = result
    tracer.tally("iterate.passes", report.iterations)
    tracer.tally("iterate.records", len(report.records))
    tracer.tally("iterate.committed", sum(r.committed for r in report.records))


def _job_counters(tracer: "Tracer", result: Any) -> None:
    # A serve job routes under its own thread-local collector, still
    # active here on the worker thread; read its counters before the
    # queue drops it.
    from repro import instrument

    collector = instrument.active()
    if collector.enabled:
        tracer.add_counters(collector.counters)
        tracer.tally("grid.bytes", collector.gauges.get("mem.grid_bytes", 0.0))


def layer_patches() -> list[tuple[Any, str, str, Observer | None]]:
    """``(owner, attribute, key, observer)`` for every wrapped function.

    Module-level functions are patched in the module their caller
    resolves them from: the engine imports ``candidate_paths`` and
    ``select_best_path`` into ``repro.core.engine``, the router calls
    ``route_net_terminals`` and ``assign_planes`` through
    ``repro.core.router``, and the flow, router and serve layers import
    ``check_flow``, ``sanitize_commit``, ``iterate_levelb``,
    ``technology_from_any`` and ``flow_result_to_dict`` lazily from
    their packages.
    """
    import repro.check
    import repro.core.engine
    import repro.core.router
    import repro.io
    import repro.iterate
    import repro.serve.jobqueue
    import repro.serve.protocol
    import repro.serve.server
    import repro.technology
    from repro.channels import GreedyChannelRouter
    from repro.core.search import MBFSearch
    from repro.core.steiner import SteinerTreeBuilder
    from repro.globalroute import GlobalRouter
    from repro.grid.occupancy import GridTransaction, RoutingGrid
    from repro.grid.planes import PlaneSetTransaction
    from repro.maze import LeeEngine
    from repro.placement import RowPlacement
    from repro.serve.protocol import JobSpec

    engine = repro.core.engine
    router = repro.core.router
    return [
        (RowPlacement, "build", "placement.build", None),
        (GlobalRouter, "route", "globalroute.route", None),
        (GreedyChannelRouter, "route", "channels.route", None),
        (router.LevelBRouter, "__init__", "router.init", None),
        (router, "assign_planes", "assign.planes", None),
        (router.LevelBRouter, "route", "router.route", None),
        (router, "route_net_terminals", "router.net", None),
        (SteinerTreeBuilder, "attach_candidates", "steiner.attach", None),
        (engine.MBFSEngine, "route", "engine.mbfs", _mbfs_failed),
        (MBFSearch, "run", "search.run", _found),
        (engine, "candidate_paths", "select.candidates", _candidates),
        (engine, "select_best_path", "select.best", None),
        (LeeEngine, "route", "maze.route", _maze_found),
        (RoutingGrid, "commit_path", "grid.commit", None),
        (RoutingGrid, "rip_net", "grid.rip", None),
        (GridTransaction, "rollback", "grid.rollback", None),
        (PlaneSetTransaction, "rollback", "grid.planes_rollback", None),
        (repro.iterate, "iterate_levelb", "iterate", _iterate_report),
        (repro.check, "check_flow", "check.flow", None),
        (repro.check, "sanitize_commit", "check.commit", None),
        (repro.technology, "technology_from_any", "technology.ingest", None),
        (JobSpec, "from_dict", "serve.validate", None),
        (repro.serve.protocol, "canonical_digest", "io.digest", None),
        (repro.serve.server, "canonical_digest", "io.digest", None),
        (repro.io, "flow_result_to_dict", "io.result_dict", None),
        (repro.serve.jobqueue, "execute_spec", "serve.execute", _job_counters),
    ]


class Tracer:
    """Call counts, total and self wall time per wrapped layer function."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.tallies: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- observation ----------------------------------------------------
    def tally(self, name: str, n: float) -> None:
        with self._lock:
            self.tallies[name] += n

    def add_counters(self, counters: dict[str, int]) -> None:
        with self._lock:
            for name, n in counters.items():
                self.counters[name] += n

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn: Callable, observe: Observer | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[key] += 1
                    self.total_s[key] += elapsed
                    self.self_s[key] += elapsed - nested
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------
    def patch(
        self, owner: Any, attr: str, key: str, observe: Observer | None = None
    ) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]  # only attributes the class defines
        else:
            raw = getattr(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap(key, raw.__func__, observe))
        else:
            wrapped = self._wrap(key, raw, observe)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer function for a ``with`` block, then restore."""
        try:
            for owner, attr, key, observe in layer_patches():
                self.patch(owner, attr, key, observe)
            yield self
        finally:
            self.restore()

    def wrapped_self_s(self, exclude: tuple[str, ...] = ()) -> float:
        """Summed self time of every wrapped key not in ``exclude``."""
        return sum(s for k, s in self.self_s.items() if k not in exclude)


#: Deterministic program counters read from ``instrument.collecting()``.
COUNTERS = (
    "mbfs.nodes_expanded",
    "mbfs.searches",
    "pst.candidates",
    "pst.backtrack_steps",
    "maze.nodes_expanded",
    "maze.fallbacks",
    "region.expansions",
    "ripups.performed",
    "occupancy.cells_touched",
    "txn.undo_cells",
    "iterate.nets_ripped",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, counters: dict[str, int], grid_bytes: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics shared by every workload, ``name -> (value, unit)``.

    Every ``*_s`` metric is self time except ``serve.execute_s``, which
    is the total time inside ``execute_spec`` (the base its nested self
    times add up to).
    """
    t, n, tally = tracer.self_s, tracer.calls, tracer.tallies
    mbfs_calls = n["engine.mbfs"]
    metrics: dict[str, tuple[float, str]] = {
        "placement.build_s": (t["placement.build"], "s"),
        "globalroute.route_s": (t["globalroute.route"], "s"),
        "channels.route_s": (t["channels.route"], "s"),
        "channels.calls": (n["channels.route"], "count"),
        "router.init_s": (t["router.init"], "s"),
        "assign.planes_s": (t["assign.planes"], "s"),
        "router.route_s": (t["router.route"], "s"),
        "router.route_calls": (n["router.route"], "count"),
        "router.net_self_s": (t["router.net"], "s"),
        "router.nets": (n["router.net"], "count"),
        "steiner.attach_s": (t["steiner.attach"], "s"),
        "steiner.calls": (n["steiner.attach"], "count"),
        "engine.mbfs_s": (t["engine.mbfs"], "s"),
        "engine.mbfs_calls": (mbfs_calls, "count"),
        "engine.mbfs_failed": (tally["engine.mbfs_failed"], "count"),
        "engine.region_escalation_ratio": (
            _ratio(counters.get("region.expansions", 0), mbfs_calls), "ratio"),
        "engine.rescue_ratio": (_ratio(n["maze.route"], mbfs_calls), "ratio"),
        "search.run_s": (t["search.run"], "s"),
        "search.runs": (n["search.run"], "count"),
        "search.found_ratio": (
            _ratio(tally["search.found"], n["search.run"]), "ratio"),
        "search.us_per_node": (
            _ratio(tracer.total_s["search.run"] * 1e6,
                   counters.get("mbfs.nodes_expanded", 0)), "us"),
        "select.candidates_s": (t["select.candidates"], "s"),
        "select.best_s": (t["select.best"], "s"),
        "select.candidates_per_search": (
            _ratio(tally["select.candidates"], n["select.candidates"]), "ratio"),
        "maze.route_s": (t["maze.route"], "s"),
        "maze.calls": (n["maze.route"], "count"),
        "maze.found_ratio": (_ratio(tally["maze.found"], n["maze.route"]), "ratio"),
        "grid.commit_s": (t["grid.commit"], "s"),
        "grid.commits": (n["grid.commit"], "count"),
        "grid.rip_s": (t["grid.rip"], "s"),
        "grid.rips": (n["grid.rip"], "count"),
        "grid.rollback_s": (
            t["grid.rollback"] + t["grid.planes_rollback"], "s"),
        "grid.rollbacks": (n["grid.rollback"], "count"),
        "grid.bytes": (grid_bytes, "bytes"),
        "iterate.s": (t["iterate"], "s"),
        "iterate.passes": (tally["iterate.passes"], "count"),
        "iterate.commit_ratio": (
            _ratio(tally["iterate.committed"], tally["iterate.records"]), "ratio"),
        "check.flow_s": (t["check.flow"], "s"),
        "check.commit_s": (t["check.commit"], "s"),
        "technology.ingest_s": (t["technology.ingest"], "s"),
        "serve.validate_s": (t["serve.validate"], "s"),
        "io.digest_s": (t["io.digest"], "s"),
        "io.digest_calls": (n["io.digest"], "count"),
        "io.result_dict_s": (t["io.result_dict"], "s"),
        "serve.execute_s": (tracer.total_s["serve.execute"], "s"),
    }
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    return metrics
