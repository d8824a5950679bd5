"""Routing tracks and the ``O(h*v)`` occupancy model.

The level B router works on a grid of horizontal and vertical routing
tracks with (possibly) non-uniform spacing (paper section 3).  This
package provides:

:class:`TrackSet`
    A sorted set of track coordinates with coordinate/index mapping.
:class:`RoutingGrid`
    The pair of track sets plus the two-dimensional occupancy array the
    paper describes: per intersection, separate horizontal-direction and
    vertical-direction ownership (reserved-layer model: metal4 carries
    horizontal, metal3 vertical), obstacle flags, and the auxiliary
    unrouted-terminal map the cost function's ``dup`` term reads.
:class:`GridTransaction` / :class:`GridSnapshot`
    The transactional state layer: a journal of undo records covering
    every grid mutation, giving rollback and per-net rip-up in
    O(cells touched), plus immutable snapshots for exactness checks.
:class:`PlaneSet`
    N routing grids (one per over-cell reserved-layer plane) sharing
    the same track coordinate sets, with aggregate transactions and
    snapshots.  Plane 0 is the paper's metal3/metal4 grid.
"""

from repro.grid.tracks import TrackSet
from repro.grid.occupancy import (
    FREE,
    OBSTACLE,
    GridSnapshot,
    GridTransaction,
    RoutingGrid,
)
from repro.grid.planes import PlaneSet, PlaneSetTransaction

__all__ = [
    "TrackSet",
    "RoutingGrid",
    "FREE",
    "OBSTACLE",
    "GridSnapshot",
    "GridTransaction",
    "PlaneSet",
    "PlaneSetTransaction",
]
