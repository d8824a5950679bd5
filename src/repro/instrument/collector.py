"""Span/counter/event collection core.

The collector is *global but swappable*: instrumented code calls the
module-level helpers (:func:`span`, :func:`count`, :func:`event`,
:func:`gauge`) which delegate to the currently active collector.  By
default that is a :class:`NullCollector` whose mutators are no-ops, so
instrumentation costs one attribute read and a branch when collection
is off.  Hot loops keep their own local tallies and report them in one
``count`` call per search/route, so the disabled path never pays a
per-node price.

``collecting()`` installs a fresh :class:`Collector` for the duration
of a ``with`` block and restores the previous one afterwards::

    with instrument.collecting() as col:
        result = overcell_flow(design)
    print(tree_report(col))

Spans aggregate by name under their parent (profiler-style): entering
``levelb.net`` 40 times under ``levelb.route`` yields one
:class:`SpanNode` with ``calls == 40``.  A :class:`Span` always
measures its own wall time and exposes it as ``elapsed_s`` even when
collection is disabled, so callers (e.g. ``LevelBRouter.route``) can
source their timing from the span unconditionally.

The collector is not thread-safe; give each thread its own collector
via :func:`thread_collecting`, which overrides the global one for the
calling thread only.  Long-lived multi-tenant processes (the
``repro.serve`` job workers) run each job under its own thread-local
collector so concurrent jobs never interleave spans or counters, while
single-threaded callers keep the plain global swap.

Collectors also expose a *subscription point*: listeners registered
with :meth:`Collector.subscribe` see every structured event as it is
recorded.  That is how serve streams live per-net progress to HTTP
clients without polling the event list.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator
from typing import Any


@dataclass
class SpanNode:
    """One node of the aggregated span tree.

    ``calls`` counts completed enters of this span name under this
    parent; ``total_s`` sums their wall time (re-entrant nesting of the
    same name creates a *child* node, so totals never double-count).
    """

    name: str
    calls: int = 0
    total_s: float = 0.0
    children: dict[str, "SpanNode"] = field(default_factory=dict)

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    @property
    def self_s(self) -> float:
        """Wall time not attributed to any child span."""
        return max(
            0.0, self.total_s - sum(c.total_s for c in self.children.values())
        )

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanNode"]]:
        """Depth-first ``(depth, node)`` pairs, this node first."""
        yield depth, self
        for c in self.children.values():
            yield from c.walk(depth + 1)

    def find(self, *path: str) -> "SpanNode" | None:
        """The descendant at ``path`` (child names), or ``None``."""
        node: SpanNode | None = self
        for name in path:
            if node is None:
                return None
            node = node.children.get(name)
        return node

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanNode":
        node = cls(
            name=data["name"],
            calls=int(data.get("calls", 0)),
            total_s=float(data.get("total_s", 0.0)),
        )
        for child in data.get("children", ()):
            sub = cls.from_dict(child)
            node.children[sub.name] = sub
        return node


class Span:
    """Context-manager timer; reports to its collector when enabled.

    Always measures wall time (two ``perf_counter`` calls) so
    ``elapsed_s`` is valid even with collection disabled.
    """

    __slots__ = ("name", "elapsed_s", "_collector", "_node", "_start")

    def __init__(self, name: str, collector: "Collector") -> None:
        self.name = name
        self.elapsed_s = 0.0
        self._collector = collector
        self._node: SpanNode | None = None

    def __enter__(self) -> "Span":
        if self._collector.enabled:
            self._node = self._collector._push(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed_s = time.perf_counter() - self._start
        if self._node is not None:
            self._collector._pop(self._node, self.elapsed_s)


class Collector:
    """Accumulates one run's spans, counters, gauges and events."""

    enabled: bool = True

    def __init__(self) -> None:
        self.root = SpanNode("root")
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.events: list[dict[str, Any]] = []
        self._stack: list[SpanNode] = [self.root]
        self._seq = 0
        self._listeners: list[Callable[[dict[str, Any]], None]] = []

    # -- spans ----------------------------------------------------------
    def span(self, name: str) -> Span:
        return Span(name, self)

    def _push(self, name: str) -> SpanNode:
        node = self._stack[-1].child(name)
        self._stack.append(node)
        return node

    def _pop(self, node: SpanNode, elapsed_s: float) -> None:
        if self._stack and self._stack[-1] is node:
            self._stack.pop()
        node.calls += 1
        node.total_s += elapsed_s

    # -- counters / gauges / events ------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def declare(self, *names: str) -> None:
        """Ensure counters exist (at 0) even if they never fire.

        Subsystems declare their catalogue up front so exported
        profiles distinguish "never happened" from "not instrumented".
        """
        for name in names:
            self.counters.setdefault(name, 0)

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def event(self, name: str, **fields: Any) -> None:
        self._seq += 1
        record = {"seq": self._seq, "event": name, **fields}
        self.events.append(record)
        for listener in self._listeners:
            try:
                listener(record)
            except Exception:
                # A broken subscriber must never take routing down.
                pass

    # -- event subscription --------------------------------------------
    def subscribe(self, listener: Callable[[dict[str, Any]], None]) -> None:
        """Call ``listener(record)`` for every event as it is recorded.

        Listeners run synchronously on the recording thread; keep them
        cheap (append to a buffer, notify a condition).  Exceptions are
        swallowed — observability never fails the observed work.
        """
        self._listeners.append(listener)


class NullCollector(Collector):
    """The disabled collector: every mutator is a no-op.

    Its ``counters``/``gauges``/``events`` stay empty so reads remain
    safe; ``span`` still returns a timing :class:`Span` (which skips
    tree bookkeeping because ``enabled`` is ``False``).
    """

    enabled = False

    def count(self, name: str, n: int = 1) -> None:  # pragma: no cover
        pass

    def declare(self, *names: str) -> None:  # pragma: no cover
        pass

    def gauge(self, name: str, value: float) -> None:  # pragma: no cover
        pass

    def event(self, name: str, **fields: Any) -> None:  # pragma: no cover
        pass


_NULL = NullCollector()
_active: Collector = _NULL

# Per-thread overrides (``thread_collecting``).  ``_tls_users`` counts
# live overrides so the hot-path helpers only pay the thread-local
# lookup while at least one exists — zero-cost for the common
# single-collector case.
_tls = threading.local()
_tls_lock = threading.Lock()
_tls_users = 0


def active() -> Collector:
    """The calling thread's collector (the global one by default)."""
    if _tls_users:
        col = getattr(_tls, "collector", None)
        if col is not None:
            return col  # type: ignore[no-any-return]
    return _active


get_collector = active


def set_collector(collector: Collector | None) -> Collector:
    """Install ``collector`` globally; ``None`` restores the null one."""
    global _active
    _active = collector if collector is not None else _NULL
    return _active


@contextmanager
def collecting(collector: Collector | None = None) -> Iterator[Collector]:
    """Enable collection for a ``with`` block; restores on exit."""
    global _active
    previous = _active
    col = collector if collector is not None else Collector()
    _active = col
    try:
        yield col
    finally:
        _active = previous


@contextmanager
def thread_collecting(collector: Collector | None = None) -> Iterator[Collector]:
    """Enable collection for this thread only; restores on exit.

    Unlike :func:`collecting`, other threads keep whatever collector
    they had — global or their own override.  This is the isolation
    primitive for concurrent multi-tenant work: each ``repro.serve``
    job thread wraps its flow run in ``thread_collecting(col)`` so
    simultaneous jobs record into disjoint span trees and event logs.
    Nesting works (the previous override is restored).
    """
    global _tls_users
    previous = getattr(_tls, "collector", None)
    col = collector if collector is not None else Collector()
    with _tls_lock:
        _tls_users += 1
    _tls.collector = col
    try:
        yield col
    finally:
        _tls.collector = previous
        with _tls_lock:
            _tls_users -= 1


def enabled() -> bool:
    """True when the active collector records (ultra-hot-path guard)."""
    return active().enabled


# -- module-level fast paths (the instrumentation call sites) ----------
def span(name: str) -> Span:
    return active().span(name)


def count(name: str, n: int = 1) -> None:
    c = active()
    if c.enabled:
        c.count(name, n)


def gauge(name: str, value: float) -> None:
    c = active()
    if c.enabled:
        c.gauge(name, value)


def event(name: str, **fields: Any) -> None:
    c = active()
    if c.enabled:
        c.event(name, **fields)
