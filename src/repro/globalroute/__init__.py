"""Global routing for channel-routed (level A / baseline) nets.

Decomposes each net over the row topology of a
:class:`~repro.placement.RowPlacement`: pins facing the same channel
become pins of that channel's :class:`~repro.channels.ChannelProblem`;
nets spanning several channels travel vertically through one of the two
side channels, entering each touched channel through a dedicated *exit
column* appended at the channel end.  Side-channel widths follow from
the peak number of verticals passing any row.
"""

from repro.globalroute.router import (
    ChannelSpec,
    GlobalRoute,
    GlobalRouter,
    NetSideUse,
)

__all__ = [
    "GlobalRouter",
    "GlobalRoute",
    "ChannelSpec",
    "NetSideUse",
]
