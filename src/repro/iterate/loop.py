"""The negotiated-congestion convergence loop (docs/ITERATION.md).

PathFinder-style iterative routing (SNIPPETS.md snippet 3) on top of
the transactional grid: route, detect failures and overflow, rip every
net back to bare terminals through the journal, charge per-track
history where the grid overflowed, and re-route in the order the
router's ordering policy (:data:`repro.core.ordering.POLICIES`) picks
from that outcome, with the history folded into the section 3.2 cost —
until the design completes or the iteration/stall budget runs out.

Two structural choices keep the loop compatible with the rest of the
stack:

*Whole-design rip-up.*  Classic PathFinder interleaves "rip one net,
re-route it", which leaves mixed old/new wiring mid-pass.  Here every
pass rips *all* nets first (terminals stay reserved), leaving the grid
exactly where a fresh :meth:`~repro.core.router.LevelBRouter.route`
starts, so each pass is an ordinary one-pass route under a new order
and history.

*Commit-if-better.*  Each pass runs inside one plane-set transaction.
A pass that does not strictly improve on the best result so far — or
that fails the ``repro.check`` short sweep — rolls back in
O(cells-touched), so the best wiring is always the one on the grid and
the loop can never end worse than one-pass routing.

The *history* lives in :class:`repro.core.cost.TrackHistory`, one per
plane, attached to the router between passes; its pricing schedule is
fixed (:func:`history_weight`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Any

from repro import instrument
from repro.instrument.names import (
    EVT_ITERATE_PASS,
    ITERATE_HISTORY_PEAK,
    ITERATE_NETS_RIPPED,
    ITERATE_PASSES,
    ITERATE_ROLLBACKS,
    ITERATE_STALLS,
    SPAN_ITERATE,
    SPAN_ITERATE_PASS,
)
from repro.core.cost import TrackHistory
from repro.core.ordering import NO_FEEDBACK, POLICIES, NetFeedback
from repro.core.router import LevelBResult, LevelBRouter

__all__ = ["IterateReport", "IterationRecord", "iterate_levelb"]


#: PathFinder's growing present-cost factor, collapsed onto the history
#: term: iteration ``i`` (1-based) prices history at
#: ``HISTORY_WEIGHT * (PRESENT_BASE + PRESENT_GROWTH * (i - 1))``, so
#: congested tracks get more expensive every round.
HISTORY_WEIGHT = 6.0
PRESENT_BASE = 1.0
PRESENT_GROWTH = 0.5

#: The charge each overflowed region (or failed window) adds to the
#: tracks crossing it after a pass.  Charges never decay.
HISTORY_INCREMENT = 1.0

#: Consecutive non-improving passes before the loop gives up.
STALL_LIMIT = 2

#: Edge length, in tracks, of the square regions the track index space
#: is tiled into; the last row and column are clipped to the grid.
REGION_TRACKS = 32

#: Inclusive track bounds ``(v_lo, v_hi, h_lo, h_hi)`` of a terminal
#: window or a region.
Bounds = tuple[int, int, int, int]


def history_weight(iteration: int) -> float:
    """Effective history weight of one iteration (1-based)."""
    return HISTORY_WEIGHT * (PRESENT_BASE + PRESENT_GROWTH * (iteration - 1))


@dataclass
class IterationRecord:
    """One pass's outcome, as recorded in the report."""

    iteration: int
    completion: float
    failed_nets: list[str]
    wire_length: int
    corners: int
    nets_ripped: int
    history_peak: float
    committed: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "iteration": self.iteration,
            "completion": self.completion,
            "failed_nets": list(self.failed_nets),
            "wire_length": self.wire_length,
            "corners": self.corners,
            "nets_ripped": self.nets_ripped,
            "history_peak": self.history_peak,
            "committed": self.committed,
        }


@dataclass
class IterateReport:
    """The convergence story of one iterative run."""

    policy: str
    iterations: int
    converged: bool
    stalled: bool
    records: list[IterationRecord]

    @property
    def final(self) -> IterationRecord:
        """The last *committed* record (the wiring on the grid)."""
        committed = [r for r in self.records if r.committed]
        return committed[-1]

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "iterations": self.iterations,
            "converged": self.converged,
            "stalled": self.stalled,
            "records": [r.to_dict() for r in self.records],
        }


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _quality(result: LevelBResult) -> tuple[int, int, int, int]:
    """Lexicographic pass quality: fewer failures, then less wiring."""
    return (
        result.nets_attempted - result.nets_completed,
        sum(r.failed_terminals for r in result.routed),
        result.total_wire_length,
        result.total_corners,
    )


def _complete(result: LevelBResult) -> bool:
    return all(r.complete for r in result.routed)


def _short_sweep_clean(result: LevelBResult) -> bool:
    """The ``repro.check`` short sweep over the candidate wiring."""
    from repro.check import check_shorts, extract_levelb

    return not check_shorts(extract_levelb(result))


def _spans(lo: int, hi: int, num_tracks: int) -> list[tuple[int, int]]:
    """The inclusive track spans of the regions ``[lo, hi]`` overlaps
    along one axis of ``num_tracks`` tracks."""
    return [
        (start, min(start + REGION_TRACKS, num_tracks) - 1)
        for start in range(lo - lo % REGION_TRACKS, hi + 1, REGION_TRACKS)
    ]


def _regions(num_vtracks: int, num_htracks: int, window: Bounds) -> list[Bounds]:
    """The bounds of every region a window overlaps, row by row."""
    v_lo, v_hi, h_lo, h_hi = window
    return [
        (rv_lo, rv_hi, rh_lo, rh_hi)
        for rh_lo, rh_hi in _spans(h_lo, h_hi, num_htracks)
        for rv_lo, rv_hi in _spans(v_lo, v_hi, num_vtracks)
    ]


@dataclass(frozen=True)
class _RegionContacts:
    """Each net's contact with the overflowed regions of the grid.

    The overflow signal is a coarse capacity/demand model after arXiv
    1810.12789 (docs/ITERATION.md).  It reads only the nets' terminal
    windows, and those never move
    (:meth:`~repro.core.router.LevelBRouter.unroute` re-reserves the
    same terminals), so it is built once per :func:`iterate_levelb`
    call; from pass to pass only which nets failed changes.
    """

    #: ``net_id`` -> the net's terminal window in track index space.
    windows: dict[int, Bounds]
    #: ``net_id`` -> the overflowed regions its window touches, row by row.
    overflowed: dict[int, list[Bounds]]
    #: ``net_id`` -> the policy's view of the net, ``failed`` left False.
    standing: dict[int, NetFeedback]

    @classmethod
    def build(
        cls, num_vtracks: int, num_htracks: int, windows: dict[int, Bounds]
    ) -> _RegionContacts:
        """Every net's overflowed regions, their count and its peak
        region utilization, from the terminal windows of a grid.

        A region's capacity is the h- plus v-tracks threading it; each
        window overlapping it demands two of them (one h, one v: the
        least a route through it consumes).  A region whose demand
        exceeds its capacity is overflowed.
        """
        touching = {
            net_id: _regions(num_vtracks, num_htracks, window)
            for net_id, window in windows.items()
        }
        crossings = Counter(r for regions in touching.values() for r in regions)
        utilization = {
            (v_lo, v_hi, h_lo, h_hi): 2 * n / (v_hi - v_lo + 1 + h_hi - h_lo + 1)
            for (v_lo, v_hi, h_lo, h_hi), n in crossings.items()
        }
        overflowed = {
            net_id: [r for r in regions if utilization[r] > 1.0]
            for net_id, regions in touching.items()
        }
        standing = {
            net_id: NetFeedback(
                overflow=len(overflowed[net_id]),
                demand=max(utilization[r] for r in regions),
            )
            for net_id, regions in touching.items()
        }
        return cls(windows, overflowed, standing)

    def feedback(self, result: LevelBResult) -> dict[str, NetFeedback]:
        """The previous pass distilled for the ordering policy.

        Overflow and demand come from the regions; failure from the
        routing result itself.
        """
        return {
            routed.net.name: replace(
                self.standing.get(routed.net_id, NO_FEEDBACK),
                failed=not routed.complete,
            )
            for routed in result.routed
        }


def _charge_history(
    history: tuple[TrackHistory, ...],
    result: LevelBResult,
    contacts: _RegionContacts,
    iteration: int,
) -> None:
    """Charge and re-weight the history for the next pass.

    Each failed net charges the overflowed regions its window touches,
    on its own plane; a failed net touching no overflowed region (the
    coarse demand model under-reads local contention) charges its own
    window instead, so every failure leaves a mark.  Each (plane,
    region) pair is charged once per pass, PathFinder's
    once-per-congested-resource rule, plane by plane and row by row.
    """
    charged: set[tuple[int, Bounds]] = set()
    fallback: list[tuple[int, Bounds]] = []
    for routed in result.routed:
        if routed.complete:
            continue
        window = contacts.windows.get(routed.net_id)
        if window is None:
            continue
        hit = contacts.overflowed[routed.net_id]
        if not hit:
            fallback.append((routed.plane, window))
            continue
        for region in hit:
            charged.add((routed.plane, region))
    for plane, region in sorted(charged, key=lambda c: (c[0], c[1][2], c[1][0])):
        history[plane].charge_window(*region, HISTORY_INCREMENT)
    for plane, window in fallback:
        history[plane].charge_window(*window, HISTORY_INCREMENT)
    weight = history_weight(iteration)
    for h in history:
        h.weight = weight


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
def iterate_levelb(
    router: LevelBRouter, max_iterations: int = 8
) -> tuple[LevelBResult, IterateReport]:
    """Route until complete or out of ``max_iterations`` re-route passes.

    Every pass orders the nets with the router's ``ordering_policy``;
    the first is a plain ``router.route()``, so a run with no budget,
    or one that completes there, routes exactly like one-pass routing.
    Returns the best result (whose wiring is what the grid holds) and
    the convergence report.  A negative budget raises ``ValueError``.
    """
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
    policy = POLICIES[router.ordering_policy]
    records: list[IterationRecord] = []
    stalls = 0
    iterations = 0
    with instrument.span(SPAN_ITERATE):
        instrument.active().declare(
            ITERATE_NETS_RIPPED,
            ITERATE_PASSES,
            ITERATE_ROLLBACKS,
            ITERATE_STALLS,
        )
        best = router.route()
        records.append(
            IterationRecord(
                iteration=0,
                completion=best.completion_rate,
                failed_nets=[r.net.name for r in best.routed if not r.complete],
                wire_length=best.total_wire_length,
                corners=best.total_corners,
                nets_ripped=0,
                history_peak=0.0,
                committed=True,
            )
        )
        history: tuple[TrackHistory, ...] | None = None
        contacts: _RegionContacts  # built with the history
        try:
            while (
                not _complete(best)
                and iterations < max_iterations
                and stalls < STALL_LIMIT
            ):
                iterations += 1
                with instrument.span(SPAN_ITERATE_PASS):
                    if history is None:
                        grid = router.tig.grid
                        history = tuple(
                            TrackHistory(
                                grid.num_vtracks, grid.num_htracks, weight=0.0
                            )
                            for _ in range(router.tig.planes.num_planes)
                        )
                        router.history = history
                        contacts = _RegionContacts.build(
                            grid.num_vtracks,
                            grid.num_htracks,
                            router.tig.terminal_windows(),
                        )
                    _charge_history(history, best, contacts, iterations)
                    order = policy(router.nets, contacts.feedback(best))
                    txn = router.tig.planes.begin()
                    ripped = 0
                    for routed in best.routed:
                        router.unroute(routed.net)
                        ripped += 1
                    candidate = router.route(order=order)
                    improved = _quality(candidate) < _quality(best)
                    committed = improved and _short_sweep_clean(candidate)
                    if committed:
                        txn.commit()
                        best = candidate
                        stalls = 0
                    else:
                        txn.rollback()
                        stalls += 1
                        instrument.count(ITERATE_STALLS)
                        instrument.count(ITERATE_ROLLBACKS)
                    instrument.count(ITERATE_PASSES)
                    instrument.count(ITERATE_NETS_RIPPED, ripped)
                    peak = max(h.peak() for h in history)
                    records.append(
                        IterationRecord(
                            iteration=iterations,
                            completion=candidate.completion_rate,
                            failed_nets=[
                                r.net.name
                                for r in candidate.routed
                                if not r.complete
                            ],
                            wire_length=candidate.total_wire_length,
                            corners=candidate.total_corners,
                            nets_ripped=ripped,
                            history_peak=peak,
                            committed=committed,
                        )
                    )
                    instrument.event(
                        EVT_ITERATE_PASS,
                        iteration=iterations,
                        completion=candidate.completion_rate,
                        committed=committed,
                        history_peak=peak,
                    )
        finally:
            router.history = None
        if history is not None:
            instrument.gauge(
                ITERATE_HISTORY_PEAK, max(h.peak() for h in history)
            )
    report = IterateReport(
        policy=router.ordering_policy,
        iterations=iterations,
        converged=_complete(best),
        stalled=not _complete(best) and stalls >= STALL_LIMIT,
        records=records,
    )
    return best, report
