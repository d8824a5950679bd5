"""Global routing for channel-routed (level A / baseline) nets.

Decomposes each net over the row topology of a
:class:`~repro.placement.RowPlacement`: pins facing the same channel
become pins of that channel's :class:`~repro.channels.ChannelProblem`;
nets spanning several channels travel vertically through one of the two
side channels, entering each touched channel through a dedicated *exit
column* appended at the channel end.  Side-channel widths follow from
the peak number of verticals passing any row.

:mod:`repro.globalroute.regions` extends the package upward: a coarse
capacity-annotated region model over the level B grid (after arXiv
1810.12789) that the negotiated-congestion loop consumes
(docs/ITERATION.md).
"""

from repro.globalroute.router import (
    ChannelSpec,
    GlobalRoute,
    GlobalRouter,
    NetSideUse,
)
from repro.globalroute.regions import (
    REGION_TRACKS,
    Region,
    RegionModel,
)

__all__ = [
    "GlobalRouter",
    "GlobalRoute",
    "ChannelSpec",
    "NetSideUse",
    "Region",
    "RegionModel",
    "REGION_TRACKS",
]
