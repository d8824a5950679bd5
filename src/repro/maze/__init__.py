"""Lee-style maze routing baseline.

The paper claims its Track Intersection Graph search completes
interconnections "faster ... on the average when compared to maze type
algorithms" (section 3).  This package provides the comparator: the
paths and pop counts of a classic Lee/Dijkstra wave expansion,
computed by numpy run transforms (:mod:`repro.maze.lee`), over the
*same* occupancy grid and reserved-layer model, so head-to-head runs
differ only in the search algorithm.
"""

from repro.maze.lee import LeeEngine, MazeRouter, lee_search

__all__ = ["lee_search", "LeeEngine", "MazeRouter"]
