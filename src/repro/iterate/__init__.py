"""Negotiated-congestion iterative routing (docs/ITERATION.md).

The subsystem that turns one-pass failures into iterations: a
PathFinder-style convergence loop (:func:`iterate_levelb`) over the
transactional grid, per-track history costs
(:class:`repro.core.cost.TrackHistory`) folded into the section 3.2
cost model, and a pluggable :class:`OrderingPolicy` registry deciding
each pass's net order.  One-pass routing never touches any of this —
with ``FlowParams.iterate`` off, routed geometry stays bit-identical
to the seed digests.
"""

from repro.iterate.loop import (
    CostSchedule,
    IterateConfig,
    IterateReport,
    IterationRecord,
    iterate_levelb,
)
from repro.iterate.policies import (
    CongestionAwarePolicy,
    FeatureOrderingPolicy,
    FeatureWeights,
    LongestFirstPolicy,
    NetFeedback,
    OrderingPolicy,
    available_policies,
    get_policy,
    register_policy,
)
from repro.iterate.tuning import (
    CandidateScore,
    TuningReport,
    default_candidates,
    tune_feature_policy,
)

__all__ = [
    "CandidateScore",
    "CongestionAwarePolicy",
    "CostSchedule",
    "FeatureOrderingPolicy",
    "FeatureWeights",
    "IterateConfig",
    "IterateReport",
    "IterationRecord",
    "LongestFirstPolicy",
    "NetFeedback",
    "OrderingPolicy",
    "TuningReport",
    "available_policies",
    "default_candidates",
    "get_policy",
    "iterate_levelb",
    "register_policy",
    "tune_feature_policy",
]
