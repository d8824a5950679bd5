"""Metal layer stacks and design rules.

The paper's area argument hinges on a process fact: as metal layers are
added, linewidths and via sizes grow, so halving the *track count* of a
channel does not halve its *area*.  :class:`Technology` captures exactly
the parameters that argument needs - per-layer routing pitch and width,
and via sizes between adjacent layers - and provides the two presets
used throughout the reproduction.

Since PR 10 the model is data-driven end to end: technologies ingest
from hammer-style stackup JSON (:mod:`repro.technology.ingest`), layers
carry piecewise width-dependent spacing tables
(:class:`WidthSpacingTuple`), nets carry a width class
(:class:`NetClass`) that widens their track footprint, and via rules
carry per-level costs read by the via-minimization objective.
"""

from repro.technology.ingest import (
    STACKUP_FORMAT,
    preset_stackup,
    technology_from_any,
    technology_from_stackup,
)
from repro.technology.layers import Layer, RoutingDirection, WidthSpacingTuple
from repro.technology.rules import (
    NetClass,
    Technology,
    ViaRule,
    ensure_overcell_planes,
    plane_layer_indices,
)

__all__ = [
    "Layer",
    "NetClass",
    "RoutingDirection",
    "STACKUP_FORMAT",
    "Technology",
    "ViaRule",
    "WidthSpacingTuple",
    "ensure_overcell_planes",
    "plane_layer_indices",
    "preset_stackup",
    "technology_from_any",
    "technology_from_stackup",
]
