"""Negotiated-congestion iterative routing (docs/ITERATION.md).

The subsystem that turns one-pass failures into iterations: a
PathFinder-style convergence loop (:func:`iterate_levelb`) over the
transactional grid, per-track history costs
(:class:`repro.core.cost.TrackHistory`) folded into the section 3.2
cost model, and a table of ordering policies (:data:`POLICIES`)
deciding each pass's net order.  One-pass routing never touches any of
this — with ``FlowParams.iterate`` off, routed geometry stays
bit-identical to the seed digests.
"""

from repro.iterate.loop import (
    IterateConfig,
    IterateReport,
    IterationRecord,
    iterate_levelb,
)
from repro.iterate.policies import POLICIES, NetFeedback

__all__ = [
    "POLICIES",
    "IterateConfig",
    "IterateReport",
    "IterationRecord",
    "NetFeedback",
    "iterate_levelb",
]
