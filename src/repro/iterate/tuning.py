"""Tuning the feature-driven ordering policy on the random corpus.

The ``feature`` policy (:class:`~repro.iterate.policies.FeatureOrderingPolicy`)
scores nets with a linear :class:`~repro.iterate.policies.FeatureWeights`
vector.  This module picks that vector empirically: every candidate
vector drives a full iterative run on each corpus design inside its own
``instrument`` collector, and the collected counters — failed nets,
iterations burned, nets ripped, maze fallbacks — become the candidate's
score.  Everything is deterministic: the corpus is seed-derived
(:func:`repro.bench_suite.random_corpus`), routing is deterministic,
and candidates are scored in declaration order with lexicographic
comparison, so the winning vector reproduces bit-for-bit anywhere.

This is deliberately a *tuning* harness, not training: the search space
is a small explicit candidate grid, cheap enough to re-run in a test,
honest enough to catch a regression in the default weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any
from collections.abc import Sequence

from repro import instrument
from repro.instrument.names import (
    ITERATE_NETS_RIPPED,
    ITERATE_PASSES,
    MAZE_FALLBACKS,
)
from repro.netlist import Design
from repro.iterate.loop import IterateConfig, iterate_levelb
from repro.iterate.policies import FeatureOrderingPolicy, FeatureWeights

__all__ = [
    "CandidateScore",
    "TuningReport",
    "default_candidates",
    "tune_feature_policy",
]


def default_candidates() -> tuple[FeatureWeights, ...]:
    """The explicit candidate grid the tuner scores.

    A handful of hand-shaped vectors spanning the obvious regimes:
    failure-dominated, congestion-dominated, geometry-dominated, and
    the shipped default.
    """
    return (
        FeatureWeights(),  # the shipped default (congestion-dominated)
        FeatureWeights(fail=8.0, overflow=1.0, demand=0.5, length=1.0, degree=0.0),
        FeatureWeights(fail=4.0, overflow=2.0, demand=1.0, length=1.0, degree=0.5),
        FeatureWeights(fail=0.0, overflow=0.0, demand=0.0, length=1.0, degree=1.0),
    )


@dataclass
class CandidateScore:
    """One candidate vector's aggregate outcome over the corpus."""

    weights: FeatureWeights
    failed_nets: int = 0
    wire_length: int = 0
    iterations: int = 0
    nets_ripped: int = 0
    maze_fallbacks: int = 0

    @property
    def key(self) -> tuple[int, int, int, int]:
        """Lexicographic rank: completion first, then wire, then effort."""
        return (
            self.failed_nets,
            self.wire_length,
            self.iterations,
            self.nets_ripped,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "weights": vars(self.weights) | {},
            "failed_nets": self.failed_nets,
            "wire_length": self.wire_length,
            "iterations": self.iterations,
            "nets_ripped": self.nets_ripped,
            "maze_fallbacks": self.maze_fallbacks,
        }


@dataclass
class TuningReport:
    """The full tuning story: every candidate, ranked."""

    scores: list[CandidateScore] = field(default_factory=list)

    @property
    def best(self) -> CandidateScore:
        # Scores are kept sorted (stably) by rank key, so ties resolve
        # to declaration order.
        return self.scores[0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "best": self.best.to_dict(),
            "candidates": [s.to_dict() for s in self.scores],
        }


def tune_feature_policy(
    designs: Sequence[Design] | None = None,
    candidates: Sequence[FeatureWeights] | None = None,
    *,
    max_iterations: int = 4,
) -> TuningReport:
    """Score every candidate weight vector on the corpus, best first.

    ``designs`` defaults to a small slice of the random corpus.  Each
    (design, candidate) run routes iteratively with the candidate's
    :class:`FeatureOrderingPolicy` inside a private collector; the
    ``iterate.*``, ``nets.failed`` and ``maze.fallbacks`` counters plus
    the final wirelength aggregate into the candidate's score.

    Level A runs once per design through the over-cell flow's own
    set-up (placement and level A geometry do not depend on the
    candidate weights); each candidate then gets a fresh level B router
    over the same bounds.  Flow imports stay lazy — the flow layer
    itself imports ``repro.iterate`` lazily, and this mirror of that
    idiom avoids the cycle.
    """
    from repro.flow import FlowParams
    from repro.flow.pipeline import levelb_router, realize_level_a

    if designs is None:
        from repro.bench_suite import random_corpus

        # Dense enough that one-pass routing fails and re-route passes
        # actually run — an easy corpus converges at iteration zero for
        # every candidate and discriminates nothing.
        designs = random_corpus(3, num_cells=8, num_nets=48)
    cands = tuple(candidates) if candidates is not None else default_candidates()
    params = FlowParams()
    layouts = [realize_level_a(design, params) for design in designs]
    report = TuningReport()
    for weights in cands:
        score = CandidateScore(weights=weights)
        for layout in layouts:
            router = levelb_router(layout.bounds, layout.set_b, params)
            config = IterateConfig(
                max_iterations=max_iterations,
                policy=FeatureOrderingPolicy(weights),
            )
            with instrument.collecting() as col:
                result, _rep = iterate_levelb(router, config)
            score.failed_nets += result.nets_attempted - result.nets_completed
            score.wire_length += result.total_wire_length
            score.iterations += col.counters.get(ITERATE_PASSES, 0)
            score.nets_ripped += col.counters.get(ITERATE_NETS_RIPPED, 0)
            score.maze_fallbacks += col.counters.get(MAZE_FALLBACKS, 0)
        report.scores.append(score)
    report.scores.sort(key=lambda s: s.key)
    return report
