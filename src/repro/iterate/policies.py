"""Net-ordering policies for iterative routing: one table of functions.

"Machine Learning Optimal Ordering in Global Routing Problems in
Semiconductors" (PAPERS.md, arXiv 2412.21035) shows that the order
nets route in moves completion and wirelength on its own.  The paper's
router fixes one order up front (``repro.core.ordering``); the
iterative driver (:mod:`repro.iterate.loop`) instead calls a policy
for a fresh order before every pass, feeding it the previous pass's
per-net outcome (:class:`NetFeedback`, keyed by net name) so the order
can react to observed congestion.  Pass 0 is ``policy(nets, {})``.

A policy is a function ``(nets, feedback) -> list[Net]``, and
:data:`POLICIES` maps the three names to them:

``longest-first``
    The paper's criterion every pass, with failed nets promoted to the
    front.
``congestion``
    Failed nets first, then nets whose read windows touch more
    overflowed coarse regions (:class:`repro.globalroute.RegionModel`),
    then higher peak region demand, then longest-first.
``feature``
    A fixed linear score over static net features (length, degree) and
    the feedback (failure, overflow, demand).

With no feedback every sort key but length ties, so ``longest-first``
and ``congestion`` start in exactly ``order_nets(nets, LONGEST_FIRST)``
and an iterative run's first pass matches one-pass routing.  Every
policy returns a *total, deterministic* order — ties always break on
the net name, matching the ``core/ordering.py`` contract the property
tests pin.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.netlist import Net

__all__ = ["POLICIES", "NetFeedback", "congestion", "feature", "longest_first"]


@dataclass(frozen=True)
class NetFeedback:
    """One net's outcome in the previous iteration.

    ``overflow`` counts the overflowed coarse regions the net's read
    window touches; ``demand`` is the peak demand/capacity utilization
    over all the regions it touches — both from the
    :class:`~repro.globalroute.RegionModel` the loop rebuilds each
    pass.
    """

    failed: bool = False
    overflow: int = 0
    demand: float = 0.0


#: What a policy sees for nets the previous iteration has no record of.
NO_FEEDBACK = NetFeedback()

Feedback = Mapping[str, NetFeedback]


def longest_first(nets: Sequence[Net], feedback: Feedback) -> list[Net]:
    """The paper's longest-distance-first criterion, every pass.

    Previously failed nets are promoted to the front (longest-first
    among themselves): they need free tracks the most, and right after
    the rip-up the grid is emptiest.
    """
    return sorted(
        nets,
        key=lambda n: (
            not feedback.get(n.name, NO_FEEDBACK).failed,
            -n.half_perimeter,
            n.name,
        ),
    )


def congestion(nets: Sequence[Net], feedback: Feedback) -> list[Net]:
    """Reorder by the previous iteration's overflow contribution.

    The nets fighting over contested areas claim tracks before the
    easy ones fill the slack around them.
    """

    def key(n: Net) -> tuple:
        fb = feedback.get(n.name, NO_FEEDBACK)
        return (not fb.failed, -fb.overflow, -fb.demand, -n.half_perimeter, n.name)

    return sorted(nets, key=key)


# The feature score's weights.  A weight tuner picked them on the
# random corpus, congestion-dominated; they are constants now.
FAIL_WEIGHT = 2.0
OVERFLOW_WEIGHT = 4.0
DEMAND_WEIGHT = 2.0
LENGTH_WEIGHT = 0.5
DEGREE_WEIGHT = 0.5


def feature(nets: Sequence[Net], feedback: Feedback) -> list[Net]:
    """Score nets by a weighted feature sum; highest score routes first.

    Length, degree and overflow are normalised to the netlist's maxima
    so every term lives on a comparable scale.  With no feedback only
    the static terms contribute, which still yields a deterministic
    total order.
    """
    max_hp = max((n.half_perimeter for n in nets), default=0) or 1
    max_deg = max((n.degree for n in nets), default=0) or 1
    max_ovf = max(
        (feedback.get(n.name, NO_FEEDBACK).overflow for n in nets),
        default=0,
    ) or 1
    scores: dict[str, float] = {}
    for n in nets:
        fb = feedback.get(n.name, NO_FEEDBACK)
        scores[n.name] = (
            FAIL_WEIGHT * float(fb.failed)
            + OVERFLOW_WEIGHT * (fb.overflow / max_ovf)
            + DEMAND_WEIGHT * fb.demand
            + LENGTH_WEIGHT * (n.half_perimeter / max_hp)
            + DEGREE_WEIGHT * (n.degree / max_deg)
        )
    return sorted(nets, key=lambda n: (-scores[n.name], n.name))


#: Every ordering policy by name: the one table the loop, the CLI and
#: the serve protocol read.
POLICIES: dict[str, Callable[[Sequence[Net], Feedback], list[Net]]] = {
    "longest-first": longest_first,
    "congestion": congestion,
    "feature": feature,
}
