"""Integer Manhattan geometry substrate.

All routing in this package happens on an integer grid in abstract
"lambda" units.  The geometry layer provides the small, heavily reused
vocabulary types: :class:`Point`, closed :class:`Interval`,
:class:`Rect`, and axis-parallel :class:`Segment` / rectilinear
:class:`Path` helpers.
"""

from repro.geometry.point import Point, manhattan
from repro.geometry.interval import Interval
from repro.geometry.rect import Rect
from repro.geometry.segment import Path, Segment

__all__ = [
    "Point",
    "manhattan",
    "Interval",
    "Rect",
    "Segment",
    "Path",
]
