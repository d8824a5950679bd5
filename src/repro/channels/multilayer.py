"""A conservative HVH three-layer channel router.

The paper compares against multi-layer channel routing only through an
optimistic assumption (Table 3), because "no complete multi-layer
channel routing package was available".  This module supplies a real -
if deliberately conservative - three-layer router in the style the
paper's references [1]/[4]/[6] describe: two horizontal trunk layers
share each physical track position, with a single vertical layer.

Method: route the channel dogleg-free-safely in two layers first
(dogleg left-edge; greedy fallback for cyclic channels, which then
stays unpaired because its mid-channel collapse jogs make pairing
unsafe), then greedily merge *adjacent* track pairs onto one physical
row, placing the upper member's trunks on horizontal layer 0 and the
lower member's on layer 1.  A pair is legal when no column holds jog
endpoints of different nets on both members - the only way merging can
make two vertical wires touch.  Merging adjacent tracks preserves the
relative order of everything else, so all remaining vertical
constraints stay satisfied; the result still passes the standard
:meth:`ChannelRoute.check`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.channels.problem import ChannelProblem, ChannelRoutingError
from repro.channels.route import ChannelRoute, HorizontalSpan, VerticalJog
from repro.channels.greedy import GreedyChannelRouter
from repro.channels.left_edge import LeftEdgeRouter


@dataclass
class HVHResult:
    """Outcome of a three-layer routing attempt."""

    route: ChannelRoute
    paired: bool  # False: cyclic channel, greedy two-layer fallback
    base_tracks: int

    @property
    def tracks(self) -> int:
        return self.route.tracks


class HVHChannelRouter:
    """Three-layer channel routing by adjacent-track pairing."""

    def __init__(self) -> None:
        self._left_edge = LeftEdgeRouter(dogleg=True)
        self._greedy = GreedyChannelRouter()

    # ------------------------------------------------------------------
    def route(self, problem: ChannelProblem) -> HVHResult:
        """Route ``problem`` on three layers (two-layer fallback on cycles)."""
        try:
            base = self._left_edge.route(problem)
            paired = True
        except ChannelRoutingError:
            base = self._greedy.route(problem)
            return HVHResult(route=base, paired=False, base_tracks=base.tracks)
        merged = self._pair_tracks(base)
        merged.check(problem)
        return HVHResult(route=merged, paired=paired, base_tracks=base.tracks)

    # ------------------------------------------------------------------
    def _pair_tracks(self, base: ChannelRoute) -> ChannelRoute:
        """Greedy top-down merge of adjacent compatible tracks."""
        endpoints = self._jog_endpoints_by_column(base)
        row_map: dict[int, tuple[int, int]] = {}  # old row -> (new row, layer)
        new_row = 0
        old = 0
        while old < base.tracks:
            if old + 1 < base.tracks and self._can_pair(
                endpoints, old, old + 1
            ):
                row_map[old] = (new_row, 0)
                row_map[old + 1] = (new_row, 1)
                old += 2
            else:
                row_map[old] = (new_row, 0)
                old += 1
            new_row += 1
        new_tracks = new_row
        spans = [
            HorizontalSpan(
                net=s.net,
                track=row_map[s.track][0],
                c1=s.c1,
                c2=s.c2,
                layer=row_map[s.track][1],
            )
            for s in base.spans
        ]
        jogs = []
        for jog in base.jogs:
            r1 = -1 if jog.r1 == -1 else row_map[jog.r1][0]
            r2 = new_tracks if jog.r2 == base.tracks else row_map[jog.r2][0]
            jogs.append(
                VerticalJog(net=jog.net, column=jog.column, r1=r1, r2=r2)
            )
        return ChannelRoute(
            tracks=new_tracks, length=base.length, spans=spans, jogs=jogs
        )

    def _jog_endpoints_by_column(
        self, base: ChannelRoute
    ) -> dict[int, list[tuple[int, int]]]:
        """Per column: the (row, net) pairs of jog endpoints on tracks."""
        out: dict[int, list[tuple[int, int]]] = {}
        for jog in base.jogs:
            for row in (jog.r1, jog.r2):
                if 0 <= row < base.tracks:
                    out.setdefault(jog.column, []).append((row, jog.net))
        return out

    def _can_pair(
        self,
        endpoints: dict[int, list[tuple[int, int]]],
        upper: int,
        lower: int,
    ) -> bool:
        """May tracks ``upper`` and ``lower`` share a physical row?

        Forbidden exactly when some column carries jog endpoints of
        *different* nets on both tracks - merged, those two vertical
        wires would touch.
        """
        for rows in endpoints.values():
            upper_nets = {net for row, net in rows if row == upper}
            lower_nets = {net for row, net in rows if row == lower}
            if upper_nets and lower_nets and (
                upper_nets != lower_nets or len(upper_nets) > 1
            ):
                return False
        return True
