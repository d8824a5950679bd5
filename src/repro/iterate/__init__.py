"""Negotiated-congestion iterative routing (docs/ITERATION.md).

The subsystem that turns one-pass failures into iterations: a
PathFinder-style convergence loop (:func:`iterate_levelb`) over the
transactional grid, with per-track history costs
(:class:`repro.core.cost.TrackHistory`) folded into the section 3.2
cost model.  Each pass routes in the order of the router's own
ordering policy (:data:`repro.core.ordering.POLICIES`), fed the
previous pass's outcome.  One-pass routing never touches any of this —
with ``FlowParams.iterate`` off, routed geometry stays bit-identical
to the seed digests.
"""

from repro.iterate.loop import IterateReport, IterationRecord, iterate_levelb

__all__ = ["IterateReport", "IterationRecord", "iterate_levelb"]
