"""The path cost model of section 3.2.

The path selected among the minimum-corner candidates minimises

    C = w1*wl + sum_{j=1..k} (w21*drg_j + w22*dup_j + w23*acf_j)

where ``wl`` is the candidate's wire length and, for each corner ``j``,

``drg_j``
    a measure of the proximity of the corner to routed grid points,
``dup_j``
    a measure of the proximity of the corner to unrouted net terminals,
``acf_j``
    the area congestion factor around the corner.

The paper leaves the three measures' exact definitions open; we define
each as a normalised density over a square window reaching
``COST_WINDOW_RADIUS`` tracks around the corner (values in ``[0, 1]``),
read straight off the occupancy array.  The weights default to the
paper's sparse-design setting ``w1 = 1``, ``w21 = w22 = w23 = 10``;
for dense designs the paper advises weighting the corner term higher,
which the :meth:`CostWeights.dense` preset does.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.geometry import Point
from repro.grid import RoutingGrid

#: Half-width, in tracks, of the corner measures' window.
COST_WINDOW_RADIUS = 3


class PathCostTerm(ABC):
    """A section 3.2 cost-function extension, evaluated per candidate path."""

    __slots__ = ()

    @abstractmethod
    def cost(
        self,
        grid: RoutingGrid,
        points: Sequence[Point],
        corners: Sequence[tuple[int, int]],
    ) -> float:
        """Non-negative extra cost of the candidate.

        ``points`` is the waypoint list (terminals and corners);
        ``corners`` the corner index pairs.  Must not mutate the grid.
        """


class TrackHistory(PathCostTerm):
    """Accumulated per-track congestion history (negotiated congestion).

    The iterative router (:mod:`repro.iterate`, docs/ITERATION.md)
    keeps one instance per over-cell plane and charges the tracks
    crossing overflowed regions after every iteration, PathFinder
    style: a track that stays contested grows more expensive each
    round, steering re-routes away from it.  The history is one more
    :class:`PathCostTerm`, the last of a net's terms — each
    axis-aligned segment of a candidate path pays the history value of
    the track it runs on, scaled by ``weight``.

    Charges and the weight are non-negative by construction, which the
    bounded backtracking of :func:`repro.core.select.select_best_path`
    relies on (a partial sum may only grow).  One-pass routing never
    creates an instance, so its costs are bit-identical to the seed.
    """

    __slots__ = ("v", "h", "weight")

    def __init__(
        self,
        num_vtracks: int,
        num_htracks: int,
        weight: float = 1.0,
    ) -> None:
        if num_vtracks < 1 or num_htracks < 1:
            raise ValueError("TrackHistory needs at least one track per axis")
        if not 0 <= weight < math.inf:
            raise ValueError(f"history weight must be finite and non-negative, got {weight}")
        self.v: list[float] = [0.0] * num_vtracks
        self.h: list[float] = [0.0] * num_htracks
        self.weight = weight

    # ------------------------------------------------------------------
    def charge_window(
        self, v_lo: int, v_hi: int, h_lo: int, h_hi: int, amount: float
    ) -> None:
        """Add ``amount`` to every track crossing an index-space window."""
        if not 0 <= amount < math.inf:
            raise ValueError(f"history charges must be finite and non-negative, got {amount}")
        for v in range(max(0, v_lo), min(len(self.v) - 1, v_hi) + 1):
            self.v[v] += amount
        for h in range(max(0, h_lo), min(len(self.h) - 1, h_hi) + 1):
            self.h[h] += amount

    def peak(self) -> float:
        """Largest accumulated charge on any single track."""
        return max(max(self.v), max(self.h))

    # ------------------------------------------------------------------
    def cost(
        self,
        grid: RoutingGrid,
        points: Sequence[Point],
        corners: Sequence[tuple[int, int]],
    ) -> float:
        """The history surcharge of one candidate path.

        Each axis-aligned segment pays the charge of the track it runs
        on, once — minimum-corner candidates use each track for exactly
        one segment, so this is a per-track-touched charge.
        """
        if self.weight == 0.0:
            return 0.0
        total = 0.0
        for a, b in zip(points, points[1:]):
            if a == b:
                continue
            if a.y == b.y:
                total += self.h[grid.htracks.index_of(a.y)]
            else:
                total += self.v[grid.vtracks.index_of(a.x)]
        return self.weight * total


@dataclass(frozen=True)
class CostWeights:
    """Weights of the corner cost model."""

    w1: float = 1.0
    w21: float = 10.0
    w22: float = 10.0
    w23: float = 10.0

    def __post_init__(self) -> None:
        # A NaN weight makes every partial sum NaN, so the bounded walk
        # would accept no candidate and every connection would fall to
        # the rescue; an infinite one prices every corner alike.
        for name in ("w1", "w21", "w22", "w23"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"cost weight {name} must be finite and non-negative, got {value}"
                )

    @staticmethod
    def sparse() -> "CostWeights":
        """The paper's setting for sparse net distributions."""
        return CostWeights(w1=1.0, w21=10.0, w22=10.0, w23=10.0)

    @staticmethod
    def dense() -> "CostWeights":
        """Corner term weighted higher, for dense net distributions."""
        return CostWeights(w1=1.0, w21=30.0, w22=30.0, w23=30.0)

    @staticmethod
    def length_only() -> "CostWeights":
        """Ablation: ignore corner context, minimise wire length only."""
        return CostWeights(w1=1.0, w21=0.0, w22=0.0, w23=0.0)


class CornerCostEvaluator:
    """Evaluates the per-corner term of the cost function on a grid.

    :meth:`corner_costs` prices a whole batch of corners with one
    :meth:`~repro.grid.RoutingGrid.window_counts` read, so no memo is
    kept: the router creates one evaluator per two-terminal connection
    and prices each candidate batch against the grid as it stands.

    ``extra_terms`` hooks in cost-function extensions, each a
    :class:`PathCostTerm` evaluated once per candidate path by the
    selector: a net's coupling terms and, under :mod:`repro.iterate`,
    its plane's :class:`TrackHistory` last.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        weights: CostWeights,
        extra_terms: tuple[PathCostTerm, ...] = (),
    ) -> None:
        self.grid = grid
        self.weights = weights
        self.extra_terms = tuple(extra_terms)

    @property
    def has_path_terms(self) -> bool:
        """Does :meth:`extra_cost` add anything?"""
        return bool(self.extra_terms)

    def extra_cost(self, points, corners) -> float:
        """Sum of the extension terms for one candidate, in order."""
        return sum(
            term.cost(self.grid, points, corners) for term in self.extra_terms
        )

    def corner_costs(self, v_idx: np.ndarray, h_idx: np.ndarray) -> np.ndarray:
        """``w21*drg + w22*dup + w23*acf`` of every corner ``(v_idx[i], h_idx[i])``.

        Float64, in the scalar formula's operation order, so a corner
        costs the same bits alone or in any batch.
        """
        # Candidates share corners: read each distinct corner once.  The
        # stable sort is the one the candidates' walk order already uses.
        n_h = self.grid.num_htracks
        keys = np.asarray(v_idx, dtype=np.intp) * n_h + h_idx
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        corners = ranked[first]
        copies = np.empty(len(keys), dtype=np.intp)
        copies[order] = np.cumsum(first) - 1
        r = COST_WINDOW_RADIUS
        used, terms, busy, cells = self.grid.window_counts(
            corners // n_h, corners % n_h, r
        )
        slots = 2.0 * cells
        drg = used / slots
        # Normalise the raw terminal count by the window cell count so
        # all three measures share the [0, 1] scale.
        dup = np.minimum(1.0, terms / (2 * r + 1) ** 2)
        acf = busy / slots
        w = self.weights
        costs: np.ndarray = (w.w21 * drg + w.w22 * dup + w.w23 * acf)[copies]
        return costs

    def corner_cost(self, v_idx: int, h_idx: int) -> float:
        """``w21*drg + w22*dup + w23*acf`` for one corner at (v, h)."""
        return float(self.corner_costs(np.array([v_idx]), np.array([h_idx]))[0])
