"""Serial net ordering for level B routing: one table of policies.

The paper routes nets serially, *longest distance* first, with "the
option of a user specified ordering criterion"; arXiv 2412.21035
(PAPERS.md) shows that the order alone moves completion and
wirelength.  A policy is a function ``(nets, feedback) -> list[Net]``
and :data:`POLICIES` maps the three names to them.  The router routes
in ``policy(nets, {})``; :mod:`repro.iterate` feeds each later pass
the previous pass's :class:`NetFeedback`, keyed by net name.
Any other order goes to ``LevelBRouter.route(order=...)``.

``longest-first``
    The paper's criterion, with failed nets promoted to the front.
``congestion``
    Failed nets first, then nets whose read windows touch more
    overflowed coarse regions (docs/ITERATION.md), then higher peak
    region demand, then longest-first.
``feature``
    A fixed linear score over length, degree and the feedback.

With no feedback, ``longest-first`` and ``congestion`` both order by
``(-half_perimeter, name)``.  Every order is total and deterministic:
ties break on the net name, whatever order the caller lists nets in.
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
    over all the regions it touches.  The iterate loop computes both
    from the nets' terminal windows once per run (docs/ITERATION.md):
    only ``failed`` changes from pass to pass.
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


#: Every ordering policy by name: the one table the router, the
#: iterate loop, the CLI and the serve protocol read.
POLICIES: dict[str, Callable[[Sequence[Net], Feedback], list[Net]]] = {
    "longest-first": longest_first,
    "congestion": congestion,
    "feature": feature,
}
