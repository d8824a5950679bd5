"""The classic channel routing problem model.

A channel is a horizontal routing region with pins on its top and
bottom boundaries at integer columns.  The problem is two vectors of
net ids (0 = no pin) over the columns.  Density - the maximum number of
nets whose pin spans cross a column boundary - lower-bounds the track
count any two-layer router can achieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable


class ChannelRoutingError(RuntimeError):
    """A detailed channel router could not complete the problem."""


@dataclass
class ChannelProblem:
    """Top/bottom pin vectors over ``length`` columns.

    ``top[c]`` / ``bottom[c]`` hold the net id with a pin at column
    ``c`` on that side, or 0.  Net ids are positive and opaque to the
    router.
    """

    top: list[int]
    bottom: list[int]

    def __post_init__(self) -> None:
        if len(self.top) != len(self.bottom):
            raise ValueError("top and bottom vectors must have equal length")
        for vec in (self.top, self.bottom):
            for net in vec:
                if net < 0:
                    raise ValueError("net ids must be >= 0")

    @staticmethod
    def from_pin_lists(
        top_pins: Iterable[tuple[int, int]],
        bottom_pins: Iterable[tuple[int, int]],
        length: int | None = None,
    ) -> "ChannelProblem":
        """Build from ``(column, net)`` pairs.

        Two pins of *different* nets on the same side may not share a
        column; a duplicate pin of the same net collapses into one.
        """
        tops: dict[int, int] = {}
        bottoms: dict[int, int] = {}
        for target, pins in ((tops, top_pins), (bottoms, bottom_pins)):
            for col, net in pins:
                if col < 0:
                    raise ValueError(f"negative column {col}")
                if net <= 0:
                    raise ValueError(f"bad net id {net}")
                if target.get(col, net) != net:
                    raise ValueError(
                        f"column {col} holds two different nets on one side"
                    )
                target[col] = net
        max_col = max(list(tops) + list(bottoms), default=-1)
        n = max(length or 0, max_col + 1)
        top = [tops.get(c, 0) for c in range(n)]
        bottom = [bottoms.get(c, 0) for c in range(n)]
        return ChannelProblem(top=top, bottom=bottom)

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        return len(self.top)

    def nets(self) -> list[int]:
        """All net ids present, ascending."""
        return sorted({n for n in self.top + self.bottom if n > 0})

    def pin_columns(self, net: int) -> list[int]:
        """Columns where ``net`` has a pin (either side), ascending."""
        cols = [c for c, n in enumerate(self.top) if n == net]
        cols += [c for c, n in enumerate(self.bottom) if n == net]
        return sorted(set(cols))

    def span(self, net: int) -> tuple[int, int]:
        """Leftmost and rightmost pin columns of ``net``."""
        cols = self.pin_columns(net)
        if not cols:
            raise KeyError(f"net {net} has no pins in this channel")
        return cols[0], cols[-1]

    def pin_count(self, net: int) -> int:
        top = sum(1 for n in self.top if n == net)
        bottom = sum(1 for n in self.bottom if n == net)
        return top + bottom

    def density(self) -> int:
        """Channel density: the two-layer track-count lower bound."""
        if self.length == 0:
            return 0
        spans = []
        for net in self.nets():
            if self.pin_count(net) >= 2:
                spans.append(self.span(net))
        best = 0
        for c in range(self.length):
            cover = sum(1 for lo, hi in spans if lo <= c <= hi)
            best = max(best, cover)
        return best

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChannelProblem(length={self.length}, nets={len(self.nets())}, "
            f"density={self.density()})"
        )
