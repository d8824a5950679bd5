"""Path selection among minimum-corner candidates (section 3.2).

When the searches return several paths with the same (minimum) number
of corners, the best one is chosen by weighting the Path Selection
Trees and backtracking through them - a depth-first walk with bounding
functions.  Two properties of the problem make this cheap, as the paper
notes: edge weighting is limited to the PSTs (far smaller than the
whole Track Intersection Graph), and candidates share tree prefixes.
The candidates arrive as one :class:`~repro.core.search.CandidateBatch`
of corner arrays, so every corner is priced in one batched grid read
(:meth:`repro.core.cost.CornerCostEvaluator.corner_costs`) before the
walk starts.  The walk returns the winner's index into the batch; the
engine builds and commits that candidate's geometry alone.

The bounding function used here: candidates are visited in ascending
wire-length order and a partial sum is abandoned as soon as it reaches
the best complete cost (all cost terms are non-negative).  Since every
remaining candidate's length-only lower bound is no smaller, the walk
also terminates early once ``w1 * length`` alone reaches the bound.
"""

from __future__ import annotations

from repro import instrument
from repro.instrument.names import PST_BACKTRACK_STEPS, PST_CANDIDATES
from repro.core.cost import CornerCostEvaluator
from repro.core.search import CandidateBatch


def select_best_path(
    batch: CandidateBatch, evaluator: CornerCostEvaluator
) -> tuple[int | None, float]:
    """The cheapest candidate under the section 3.2 cost function.

    Returns ``(i, cost)``, where ``i`` indexes the winner in ``batch``;
    ``(None, inf)`` for an empty batch.  Ties resolve to the
    first-found candidate in length order, which keeps the router
    deterministic.  Backtrack effort (one step per corner-cost
    evaluation during the bounded walk) is tallied locally and reported
    in one batch.
    """
    costs = evaluator.corner_costs(batch.v, batch.h)
    depth, lengths = batch.depth, batch.lengths
    path_terms = evaluator.has_path_terms
    best: int | None = None
    best_cost = float("inf")
    steps = 0
    w1 = evaluator.weights.w1
    for i in batch.order.tolist():
        partial = w1 * float(lengths[i])
        if partial >= best_cost:
            break  # every later candidate is at least this long
        pruned = False
        for corner in costs[i * depth : (i + 1) * depth].tolist():
            steps += 1
            partial += corner
            if partial >= best_cost:
                pruned = True
                break
        if pruned:
            continue
        if path_terms:
            partial += evaluator.extra_cost(*batch.geometry(i))
        if partial < best_cost:
            best = i
            best_cost = partial
    inst = instrument.active()
    if inst.enabled:
        inst.count(PST_CANDIDATES, len(batch))
        inst.count(PST_BACKTRACK_STEPS, steps)
    return best, best_cost
