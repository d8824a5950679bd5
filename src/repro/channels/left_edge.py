"""Constrained left-edge channel routing with optional doglegs.

The classic track-assignment channel router: net trunks are intervals
assigned greedily to tracks in left-edge order, subject to the vertical
constraint graph.  With ``dogleg=True`` (default) each multi-pin net is
split at its interior pin columns into chained subnets, which both
shortens trunks and breaks most VCG cycles.  Remaining cycles are a
genuine infeasibility for this algorithm and raise
:class:`ChannelRoutingError` - use the greedy router for guaranteed
completion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import instrument
from repro.instrument.names import (
    EVT_CHANNEL_CYCLIC,
    SPAN_CHANNEL_LEFT_EDGE,
    VCG_CYCLES,
)
from repro.channels.problem import ChannelProblem, ChannelRoutingError
from repro.channels.route import ChannelRoute, HorizontalSpan, VerticalJog
from repro.channels.vcg import VerticalConstraintGraph


@dataclass(frozen=True)
class _Subnet:
    """A trunk piece of a (possibly doglegged) net."""

    net: int
    seq: int
    c1: int
    c2: int


class LeftEdgeRouter:
    """Left-edge channel router (dogleg by default)."""

    def __init__(self, dogleg: bool = True) -> None:
        self.dogleg = dogleg

    # ------------------------------------------------------------------
    def route(self, problem: ChannelProblem) -> ChannelRoute:
        """Route ``problem``; raises on vertical-constraint cycles."""
        with instrument.span(SPAN_CHANNEL_LEFT_EDGE):
            return self._route(problem)

    def _route(self, problem: ChannelProblem) -> ChannelRoute:
        subnets = self._make_subnets(problem)
        vcg = self._subnet_vcg(problem, subnets)
        cycle = vcg.find_cycle()
        if cycle is not None:
            instrument.count(VCG_CYCLES)
            instrument.event(EVT_CHANNEL_CYCLIC, subnets=len(cycle))
            raise ChannelRoutingError(
                f"vertical constraint cycle among subnets: {cycle}"
            )
        assignment = self._assign_tracks(subnets, vcg)
        tracks = (max(assignment.values()) + 1) if assignment else 0
        # Single-column two-sided nets need a through jog but no track.
        if tracks == 0 and any(
            problem.top[c] and problem.top[c] == problem.bottom[c]
            for c in range(problem.length)
        ):
            tracks = 0  # a TOP->BOT jog uses no track
        spans = [
            HorizontalSpan(net=s.net, track=t, c1=s.c1, c2=s.c2)
            for s, t in assignment.items()
        ]
        jogs = self._make_jogs(problem, subnets, assignment, tracks)
        return ChannelRoute(
            tracks=tracks, length=problem.length, spans=spans, jogs=jogs
        )

    # ------------------------------------------------------------------
    def _make_subnets(self, problem: ChannelProblem) -> list[_Subnet]:
        out: list[_Subnet] = []
        for net in problem.nets():
            cols = problem.pin_columns(net)
            if len(cols) < 2:
                continue
            if self.dogleg:
                for seq, (a, b) in enumerate(zip(cols, cols[1:])):
                    out.append(_Subnet(net=net, seq=seq, c1=a, c2=b))
            else:
                out.append(_Subnet(net=net, seq=0, c1=cols[0], c2=cols[-1]))
        return out

    def _subnet_vcg(
        self, problem: ChannelProblem, subnets: list[_Subnet]
    ) -> VerticalConstraintGraph:
        by_endpoint: dict[tuple[int, int], list[_Subnet]] = {}
        for s in subnets:
            by_endpoint.setdefault((s.net, s.c1), []).append(s)
            if s.c2 != s.c1:
                by_endpoint.setdefault((s.net, s.c2), []).append(s)
        g = VerticalConstraintGraph()
        for s in subnets:
            g.add_node(s)
        for col in range(problem.length):
            u, w = problem.top[col], problem.bottom[col]
            if not u or not w or u == w:
                continue
            for su in by_endpoint.get((u, col), ()):
                for sw in by_endpoint.get((w, col), ()):
                    g.add_edge(su, sw)
        return g

    def _assign_tracks(
        self, subnets: list[_Subnet], vcg: VerticalConstraintGraph
    ) -> dict[_Subnet, int]:
        preds: dict[_Subnet, set] = {s: vcg.predecessors(s) for s in subnets}
        unplaced = sorted(subnets, key=lambda s: (s.c1, s.c2, s.net, s.seq))
        assignment: dict[_Subnet, int] = {}
        placed_before: set = set()
        track = 0
        while unplaced:
            placed_this: list[_Subnet] = []
            last_end: int | None = None
            last_net: int | None = None
            for s in list(unplaced):
                fits = (
                    last_end is None
                    or s.c1 > last_end
                    or (s.net == last_net and s.c1 >= last_end)
                )
                if fits and preds[s] <= placed_before:
                    assignment[s] = track
                    placed_this.append(s)
                    unplaced.remove(s)
                    last_end, last_net = s.c2, s.net
            if not placed_this:
                raise ChannelRoutingError(
                    "left-edge assignment stalled (constrained subnets)"
                )
            placed_before.update(placed_this)
            track += 1
        return assignment

    def _make_jogs(
        self,
        problem: ChannelProblem,
        subnets: list[_Subnet],
        assignment: dict[_Subnet, int],
        tracks: int,
    ) -> list[VerticalJog]:
        by_net_col: dict[tuple[int, int], list[int]] = {}
        for s, t in assignment.items():
            by_net_col.setdefault((s.net, s.c1), []).append(t)
            if s.c2 != s.c1:
                by_net_col.setdefault((s.net, s.c2), []).append(t)
        jogs: list[VerticalJog] = []
        for col in range(problem.length):
            t_net, b_net = problem.top[col], problem.bottom[col]
            if t_net and t_net == b_net:
                rows = by_net_col.get((t_net, col), [])
                # One through jog connects the top pin, the bottom pin
                # and every trunk row of the net at this column.
                jogs.append(VerticalJog(net=t_net, column=col, r1=-1, r2=tracks))
                continue
            if t_net and problem.pin_count(t_net) >= 2:
                rows = by_net_col.get((t_net, col), [])
                if rows:
                    jogs.append(
                        VerticalJog(net=t_net, column=col, r1=-1, r2=max(rows))
                    )
            if b_net and problem.pin_count(b_net) >= 2:
                rows = by_net_col.get((b_net, col), [])
                if rows:
                    jogs.append(
                        VerticalJog(net=b_net, column=col, r1=min(rows), r2=tracks)
                    )
        return jogs
