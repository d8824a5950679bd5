"""Differential equivalence: batched path selection vs the list-based selector.

:func:`~repro.core.search.candidate_paths` returns one
:class:`~repro.core.search.CandidateBatch` of corner arrays, and
:func:`~repro.core.select.select_best_path` prices every corner of it
with one :meth:`RoutingGrid.window_counts` read before its bounded walk.
This module keeps a test-local copy of the list-based selection as the
oracle: one :class:`Candidate` record per leaf chain, its corners
converted through ``coord_of``, sorted by ``(length, points[1:2])``,
and priced corner by corner through three scalar window reads memoised
per corner.  On drawn grids - routed wires, obstacles, other nets'
reserved terminals, wide footprints, keep-outs, regions and entry caps
- under drawn weights, with and without a :class:`TrackHistory` and a
:class:`ParallelRunPenalty`, the batch must hold the oracle's candidates
(``geometry(i)`` and ``lengths[i]``) in the oracle's walk order, and
the index it selects must name the oracle's winner - the same
``points``, ``corners`` and leaf - at the same float cost (``==``),
with the same ``pst.candidates`` and ``pst.backtrack_steps`` counts.

The search never turns at the target: a node whose slide run holds the
target completes there, so its children never reach the target column.
The only point the candidates' deduplication can merge is therefore a
target that coincides with the source, which one example pins.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.core.cost import (
    COST_WINDOW_RADIUS,
    CornerCostEvaluator,
    CostWeights,
    TrackHistory,
)
from repro.core.coupling import ParallelRunPenalty
from repro.core.engine import MAX_DEPTH
from repro.core.search import VERTICAL, MBFSearch, PSTNode, candidate_paths
from repro.core.select import select_best_path
from repro.core.tig import GridTerminal
from repro.geometry import Point
from repro.grid import FREE
from repro.instrument.names import PST_BACKTRACK_STEPS, PST_CANDIDATES

from test_search_equivalence import NET, build, recipes


# ----------------------------------------------------------------------
# Oracle: list-based candidates, sort and memoised scalar pricing
# ----------------------------------------------------------------------
class Candidate(NamedTuple):
    """One reconstructed candidate: the oracle's record of a leaf chain."""

    points: list[Point]
    corners: list[tuple[int, int]]
    length: int
    leaf: PSTNode


def reference_candidates(result, grid) -> list[Candidate]:
    """One candidate per leaf chain, in leaf order."""
    out = []
    src = result.source.position(grid)
    dst = result.target.position(grid)
    for leaf in result.leaves:
        chain = leaf.chain()
        corners = []
        for parent, child in zip(chain, chain[1:]):
            if parent.kind == VERTICAL:
                corners.append((parent.track, child.track))
            else:
                corners.append((child.track, parent.track))
        points = [src, *(Point(*grid.coord_of(v, h)) for v, h in corners), dst]
        deduped = [points[0]]
        for p in points[1:]:
            if p != deduped[-1]:
                deduped.append(p)
        length = sum(a.manhattan_to(b) for a, b in zip(deduped, deduped[1:]))
        out.append(Candidate(deduped, corners, length, leaf))
    return out


def walk_order(candidates) -> list[int]:
    return sorted(
        range(len(candidates)),
        key=lambda i: (candidates[i].length, candidates[i].points[1:2]),
    )


class ReferencePricing:
    """Per-corner scalar window reads of the occupancy snapshot, memoised."""

    def __init__(self, grid, weights: CostWeights) -> None:
        snap = grid.snapshot()
        self.h_owner, self.v_owner = snap.h_owner, snap.v_owner
        self.terms = snap.unrouted_terms
        self.nv, self.nh = grid.num_vtracks, grid.num_htracks
        self.weights = weights
        self.memo: dict[tuple[int, int], float] = {}

    def corner_cost(self, v: int, h: int) -> float:
        cached = self.memo.get((v, h))
        if cached is not None:
            return cached
        r = COST_WINDOW_RADIUS
        hw = slice(max(0, h - r), min(self.nh - 1, h + r) + 1)
        vw = slice(max(0, v - r), min(self.nv - 1, v + r) + 1)
        hs, vs = self.h_owner[hw, vw], self.v_owner[vw, hw].T
        drg = float((hs > 0).sum() + (vs > 0).sum()) / float(2 * hs.size)
        dup = min(1.0, int(self.terms[hw, vw].sum()) / (2 * r + 1) ** 2)
        acf = float((hs != FREE).sum() + (vs != FREE).sum()) / float(2 * hs.size)
        w = self.weights
        cost = w.w21 * drg + w.w22 * dup + w.w23 * acf
        self.memo[(v, h)] = cost
        return cost


def reference_select(candidates, pricing: ReferencePricing, evaluator):
    """The bounded walk over the sorted list: ``(best, cost, steps)``."""
    best, best_cost, steps = None, float("inf"), 0
    w1 = pricing.weights.w1
    for i in walk_order(candidates):
        cand = candidates[i]
        partial = w1 * float(cand.length)
        if partial >= best_cost:
            break
        pruned = False
        for corner in cand.corners:
            steps += 1
            partial += pricing.corner_cost(*corner)
            if partial >= best_cost:
                pruned = True
                break
        if pruned:
            continue
        partial += evaluator.extra_cost(cand.points, cand.corners)
        if partial < best_cost:
            best, best_cost = cand, partial
    return best, best_cost, steps


# ----------------------------------------------------------------------
# Drawn cases
# ----------------------------------------------------------------------
WEIGHTS = [
    CostWeights.sparse(),
    CostWeights.dense(),
    CostWeights.length_only(),
    CostWeights(w1=0.37, w21=13.1, w22=0.0, w23=2.9),
    CostWeights(w1=0.0, w21=1.0, w22=50.0, w23=0.1),
]


@st.composite
def cases(draw):
    """A search recipe plus other nets' terminals and an evaluator."""
    recipe = draw(recipes())
    nv, nh = recipe[0], recipe[1]
    terminals = [
        (draw(st.integers(0, nv - 1)), draw(st.integers(0, nh - 1)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    cap = draw(st.sampled_from([1, 2, 8]))
    weights = draw(st.sampled_from(WEIGHTS))
    history = None
    if draw(st.booleans()):
        history = (
            draw(st.sampled_from([0.0, 0.5, 3.0])),
            draw(st.integers(0, nv - 1)),
            draw(st.integers(0, nh - 1)),
            draw(st.integers(1, 4)),
        )
    penalty = draw(st.sampled_from([None, None, "all", "net2"]))
    return recipe, terminals, cap, weights, history, penalty


def run_case(case):
    recipe, terminals, cap, weights, history, penalty = case
    grid, source, target, region = build(recipe)
    for v, h in terminals:  # other nets' unrouted terminals feed ``dup``
        with contextlib.suppress(ValueError):
            grid.reserve_terminal(v, h, 4)
    terms = ()
    if penalty is not None:
        targets = None if penalty == "all" else {2}
        terms = (ParallelRunPenalty(targets, weight=7.0, exclude=NET),)
    if history is not None:  # the router passes the history last
        weight, v, h, reach = history
        track_history = TrackHistory(grid.num_vtracks, grid.num_htracks, weight=weight)
        track_history.charge_window(v - reach, v + reach, h - reach, h + reach, 1.5)
        terms += (track_history,)
    evaluator = CornerCostEvaluator(grid, weights, terms)

    def search():
        return MBFSearch(
            grid, NET, source, target, region=region,
            max_depth=MAX_DEPTH, max_entries_per_track=cap,
        ).run()

    with instrument.collecting() as col:
        result = search()
        batch = candidate_paths(result, grid)
        best, cost = select_best_path(batch, evaluator)
    cands = reference_candidates(search(), grid)
    want, want_cost, steps = reference_select(
        cands, ReferencePricing(grid, weights), evaluator
    )

    assert len(batch) == len(cands)
    assert batch.order.tolist() == walk_order(cands)
    assert [(*batch.geometry(i), batch.lengths[i]) for i in range(len(batch))] == [
        (c.points, c.corners, c.length) for c in cands
    ]
    assert col.counters.get(PST_CANDIDATES, 0) == len(cands)
    assert col.counters.get(PST_BACKTRACK_STEPS, 0) == steps
    if want is None:
        assert best is None and cost == float("inf")
    else:
        assert best is not None
        assert (*batch.geometry(best), batch.lengths[best]) == (
            want.points, want.corners, want.length,
        )
        assert result.leaves[best].track_sequence() == want.leaf.track_sequence()
        assert cost == want_cost
    return batch, cands


# Hand-made recipes (see test_search_equivalence.recipes for the layout).
STRAIGHT = (  # depth 0: source and target on one free h-track
    8, 6, (1, 0), (1, 0), GridTerminal(1, 2), GridTerminal(6, 2),
    [("wire", 2, False, 4, 0, 7)], [], None,
)
COINCIDENT = (  # the target is the source: the only merged point
    6, 6, (1, 0), (1, 0), GridTerminal(2, 3), GridTerminal(2, 3), [], [], None,
)
EDGES = (  # a 4x4 grid: every corner's 7x7 window is clipped by the grid
    4, 4, (1, 0), (1, 0), GridTerminal(0, 0), GridTerminal(3, 3),
    [
        ("wire", 2, False, 1, 1, 2),
        ("wire", 3, True, 2, 2, 3),
        ("corner", 2, 1, 2),
    ],
    [], None,
)
TIES = (  # four shortest candidates share their length and first corner
    12, 4, (1, 0), (1, 0), GridTerminal(0, 0), GridTerminal(11, 0),
    [
        ("wire", 2, True, 2, 3, 3),
        ("wire", 2, False, 3, 3, 3),
        ("wire", 2, True, 5, 2, 2),
        ("wire", 2, False, 0, 6, 6),
        ("wire", 2, False, 1, 11, 11),
    ],
    [(0, 2)], None,
)


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(cases())
@example((STRAIGHT, [], 8, CostWeights.sparse(), None, None))
@example((COINCIDENT, [], 8, CostWeights.sparse(), None, None))
@example((EDGES, [(1, 2), (0, 3)], 8, CostWeights.dense(), None, None))
@example((TIES, [], 8, CostWeights.length_only(), None, None))
@example((TIES, [(4, 2)], 2, CostWeights.sparse(), (3.0, 4, 2, 2), "all"))
def test_batch_selects_as_the_list_based_selector(case):
    run_case(case)


class TestPinnedCases:
    """The examples above really exercise what they are named for."""

    def test_straight_connection_has_no_corner(self):
        batch, _ = run_case((STRAIGHT, [], 8, CostWeights.sparse(), None, None))
        assert len(batch) == 1
        points, corners = batch.geometry(0)
        assert corners == [] and len(points) == 2

    def test_coincident_target_is_merged(self):
        batch, cands = run_case((COINCIDENT, [], 8, CostWeights.sparse(), None, None))
        assert [batch.geometry(i)[0] for i in range(len(batch))] == [
            [Point(20, 30)]
        ] * 2
        assert all(c.length == 0 for c in cands)

    def test_edge_windows_are_clipped(self):
        batch, _ = run_case((EDGES, [(1, 2)], 8, CostWeights.dense(), None, None))
        assert len(batch) > 1 and batch.v.size > 0

    def test_equal_keys_resolve_in_leaf_order(self):
        batch, cands = run_case((TIES, [], 8, CostWeights.length_only(), None, None))
        keys = [(c.length, tuple(c.points[1:2])) for c in cands]
        assert len(set(keys)) < len(keys)  # some (length, first point) ties
        order = batch.order.tolist()
        for a, b in zip(order, order[1:]):
            assert keys[a] < keys[b] or (keys[a] == keys[b] and a < b)
        # Length alone prices the tied candidates alike: the first wins.
        best, _ = select_best_path(batch, CornerCostEvaluator(
            build(TIES)[0], CostWeights.length_only()
        ))
        assert keys.count(keys[order[0]]) > 1
        assert best is not None
        assert batch.geometry(best)[0] == cands[order[0]].points
