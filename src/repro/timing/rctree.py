"""Elmore delay over RC trees.

Units: resistance in ohms, capacitance in femtofarads, so delays come
out in femtoseconds (:meth:`RCTree.elmore_delay` returns picoseconds
for readability).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Hashable


@dataclass(frozen=True)
class _Edge:
    other: Hashable
    resistance: float
    capacitance: float


class RCTree:
    """A distributed RC network with tree topology.

    Wires are added with :meth:`add_wire`; each wire's capacitance is
    split half/half onto its endpoints (the standard pi-model
    reduction).  Extra lumped loads (sink pins, via stacks) attach with
    :meth:`add_node_cap`.  The Elmore delay from a root to a node is

        sum over edges e on the root-node path of R_e * C_subtree(e)

    where ``C_subtree(e)`` is all capacitance hanging below ``e`` when
    the tree is rooted at the source.
    """

    def __init__(self) -> None:
        self._adj: dict[Hashable, list[_Edge]] = {}
        self._node_cap: dict[Hashable, float] = {}

    # ------------------------------------------------------------------
    def add_wire(
        self, a: Hashable, b: Hashable, resistance: float, capacitance: float
    ) -> None:
        """Add a wire between nodes ``a`` and ``b``."""
        if resistance < 0 or capacitance < 0:
            raise ValueError("R and C must be non-negative")
        if a == b:
            raise ValueError("wire endpoints must differ")
        self._adj.setdefault(a, []).append(_Edge(b, resistance, capacitance))
        self._adj.setdefault(b, []).append(_Edge(a, resistance, capacitance))
        self._node_cap[a] = self._node_cap.get(a, 0.0) + capacitance / 2.0
        self._node_cap[b] = self._node_cap.get(b, 0.0) + capacitance / 2.0

    def add_node_cap(self, node: Hashable, capacitance: float) -> None:
        """Attach a lumped load (e.g. a sink pin) at ``node``."""
        if capacitance < 0:
            raise ValueError("capacitance must be non-negative")
        self._adj.setdefault(node, [])
        self._node_cap[node] = self._node_cap.get(node, 0.0) + capacitance

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[Hashable]:
        return list(self._adj)

    def total_cap(self) -> float:
        """Total capacitance in the network (fF)."""
        return sum(self._node_cap.values())

    def contains(self, node: Hashable) -> bool:
        return node in self._adj

    # ------------------------------------------------------------------
    def elmore_delay(self, source: Hashable, sink: Hashable) -> float:
        """Elmore delay from ``source`` to ``sink`` in picoseconds.

        The network is rooted at ``source`` by breadth-first search;
        redundant edges (loops created by e.g. maze rescues touching a
        routed trunk twice) are ignored, keeping the first-discovered
        spanning tree.  Raises :class:`KeyError` when either node is
        absent and :class:`ValueError` when the sink is unreachable.
        """
        if source not in self._adj:
            raise KeyError(f"source {source!r} not in tree")
        if sink not in self._adj:
            raise KeyError(f"sink {sink!r} not in tree")
        parent: dict[Hashable, tuple[Hashable, float] | None] = {source: None}
        order: list[Hashable] = [source]
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for edge in self._adj[node]:
                if edge.other in parent:
                    continue
                parent[edge.other] = (node, edge.resistance)
                order.append(edge.other)
                queue.append(edge.other)
        if sink not in parent:
            raise ValueError(f"sink {sink!r} unreachable from {source!r}")
        # Subtree capacitance by reverse BFS order.
        subtree = {node: self._node_cap.get(node, 0.0) for node in order}
        for node in reversed(order):
            link = parent[node]
            if link is not None:
                subtree[link[0]] += subtree[node]
        # Walk sink -> source accumulating R * C_subtree.
        delay_ffs = 0.0
        node = sink
        while parent[node] is not None:
            up, resistance = parent[node]
            delay_ffs += resistance * subtree[node]
            node = up
        return delay_ffs / 1000.0  # ohm*fF = fs; report ps
