"""The three end-to-end flows.

All flows share one pipeline skeleton: shelf placement -> global
channel decomposition -> detailed (greedy) channel routing -> channel
heights -> realised geometry -> metrics.  The over-cell flow sends only
set A through that skeleton and routes set B with the level B router on
the realised layout; the multi-layer channel flow rescales the baseline
channel geometry per the paper's Table 3 assumptions.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple
from collections.abc import Sequence

from repro import instrument
from repro.instrument.names import (
    CHANNELS_ROUTED,
    MEM_PEAK_RSS_BYTES,
    SPAN_CHANNEL_ROUTING,
    SPAN_FLOW_ML_CHANNEL,
    SPAN_FLOW_OVERCELL,
    SPAN_FLOW_TWO_LAYER,
    SPAN_GLOBAL_ROUTE,
    SPAN_PLACEMENT,
)
from repro.channels import ChannelRoute, GreedyChannelRouter
from repro.core import LevelBRouter
from repro.flow.metrics import FlowResult
from repro.flow.params import FlowParams
from repro.geometry import Rect
from repro.globalroute import GlobalRoute, GlobalRouter
from repro.netlist import Design, Net
from repro.partition import PartitionStrategy, partition_nets
from repro.placement import RowPlacement
from repro.technology import ensure_overcell_planes

#: Clearance around the core, in lambda.
CORE_MARGIN = 16

#: The channel-area scale the paper grants Table 3's optimistic
#: four-layer channel model.
CHANNEL_AREA_FACTOR = 0.5


# ----------------------------------------------------------------------
# Shared pipeline pieces
# ----------------------------------------------------------------------
def _assign_net_ids(nets: Sequence[Net]) -> dict[Net, int]:
    return {net: i + 1 for i, net in enumerate(sorted(nets, key=lambda n: n.name))}


def _route_channels(global_route: GlobalRoute) -> list[ChannelRoute]:
    """Detailed-route every channel with the greedy router, which
    always completes."""
    greedy = GreedyChannelRouter()
    routes = []
    for spec in global_route.specs:
        route = greedy.route(spec.problem)
        route.check(spec.problem)
        routes.append(route)
    instrument.count(CHANNELS_ROUTED, len(routes))
    return routes


def _channel_heights(
    global_route: GlobalRoute, routes: Sequence[ChannelRoute], pitch: int
) -> list[int]:
    """Per-channel height; empty channels keep one pitch of clearance."""
    heights = []
    for spec, route in zip(global_route.specs, routes):
        if route.tracks == 0 and not route.jogs:
            heights.append(pitch)
        else:
            heights.append(route.height(pitch))
    return heights


def _level_a_wire_and_vias(
    global_route: GlobalRoute,
    routes: Sequence[ChannelRoute],
    placement: RowPlacement,
    heights: Sequence[int],
    side_widths: tuple[int, int],
    pitch: int,
) -> tuple[int, int]:
    wire = sum(r.wire_length(pitch, pitch) for r in routes)
    row_heights = [row.height for row in placement.rows]
    wire += global_route.side_wire_length(row_heights, heights)
    # Horizontal stubs reaching into the side channels: charge half the
    # side-channel width per exit.
    for use in global_route.side_uses.values():
        width = side_widths[0] if use.side == "L" else side_widths[1]
        wire += len(use.exits) * (width // 2)
    vias = sum(r.via_count() for r in routes)
    return wire, vias


def _run_channel_pipeline(
    design: Design,
    nets: Sequence[Net],
    params: FlowParams,
) -> tuple[RowPlacement, GlobalRoute, list[ChannelRoute], list[int], tuple[int, int]]:
    pitch = params.channel_pitch
    with instrument.span(SPAN_PLACEMENT):
        placement = RowPlacement.build(design, pitch=pitch)
    net_ids = _assign_net_ids(nets)
    with instrument.span(SPAN_GLOBAL_ROUTE):
        global_route = GlobalRouter(placement, pitch=pitch).route(
            nets, net_ids
        )
    with instrument.span(SPAN_CHANNEL_ROUTING):
        routes = _route_channels(global_route)
    heights = _channel_heights(global_route, routes, pitch)
    side_widths = global_route.side_widths(placement.num_rows)
    return placement, global_route, routes, heights, side_widths


class LevelA(NamedTuple):
    """The over-cell flow's level A, realised: the net partition, the
    channel-routed set A and the layout bounds level B routes over."""

    set_a: list[Net]
    set_b: list[Net]
    placement: RowPlacement
    global_route: GlobalRoute
    routes: list[ChannelRoute]
    heights: list[int]
    side_widths: tuple[int, int]
    bounds: Rect


def realize_level_a(design: Design, params: FlowParams) -> LevelA:
    """Partition the nets, channel-route set A and realise the layout.

    The one level A set-up behind :func:`overcell_flow`; tests build
    a level B router over its bounds with :func:`levelb_router`.
    """
    nets = design.routable_nets()
    if params.partition is PartitionStrategy.LONG_TO_B:
        # Geometric partitioning needs provisional pin positions.
        pitch = params.channel_pitch
        provisional = RowPlacement.build(design, pitch=pitch)
        provisional.realize([pitch] * provisional.channel_count, margin=CORE_MARGIN)
    set_a, set_b = partition_nets(
        nets, params.partition, length_threshold=params.length_threshold
    )
    placement, global_route, routes, heights, side_widths = _run_channel_pipeline(
        design, set_a, params
    )
    bounds = placement.realize(
        heights,
        left_width=side_widths[0],
        right_width=side_widths[1],
        margin=CORE_MARGIN,
    )
    return LevelA(
        set_a, set_b, placement, global_route, routes, heights, side_widths, bounds
    )


def levelb_router(
    bounds: Rect, nets: Sequence[Net], params: FlowParams
) -> LevelBRouter:
    """The level B router ``params`` describe, over realised ``bounds``.

    :class:`FlowParams` is the one flow-level home of the router's
    ``planes``, ``ordering_policy``, ``objective`` and ``checked``
    knobs; its ``levelb`` config carries the rest.  A technology too
    short for the requested plane count is extended with extrapolated
    reserved pairs (docs/LAYERS.md).
    """
    return LevelBRouter(
        bounds,
        nets,
        technology=ensure_overcell_planes(params.technology, params.planes),
        obstacles=params.obstacles,
        config=params.levelb,
        planes=params.planes,
        ordering_policy=params.ordering_policy,
        objective=params.objective,
        checked=params.checked,
    )


# ----------------------------------------------------------------------
# Flows
# ----------------------------------------------------------------------
def _maybe_check(result: FlowResult, params: FlowParams) -> FlowResult:
    """Run the independent checker over a finished flow if requested."""
    if params.checked:
        from repro.check import check_flow

        result.check_report = check_flow(result)
    return result


def _route_levelb(router: LevelBRouter, params: FlowParams):
    """Route level B; returns ``(result, iterate_report_or_None)``.

    One serial pass, or — with ``params.iterate`` — the
    negotiated-congestion loop.  ``repro.iterate`` is imported lazily
    (same idiom as :func:`_maybe_check`): it sits *above* the flow
    layer in the dependency order, so a module-level import here would
    be a cycle.
    """
    if not params.iterate:
        return router.route(), None
    from repro.iterate import iterate_levelb

    return iterate_levelb(router, params.max_iterations)


def _attach_profile(result: FlowResult) -> FlowResult:
    """Snapshot the active collector into ``result.profile`` if enabled.

    The snapshot reflects the collector's cumulative state at the time
    the flow finishes; with one flow per ``collecting()`` block that is
    exactly the flow's own profile.  Peak RSS is sampled here — once,
    at flow end — so every profiled flow carries the ``mem.*`` gauges
    docs/SCALING.md describes.
    """
    inst = instrument.active()
    if inst.enabled:
        inst.gauge(MEM_PEAK_RSS_BYTES, float(_peak_rss_bytes()))
        result.profile = instrument.snapshot(inst)
    return result


def _peak_rss_bytes() -> int:
    """Process peak resident set size in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise
    to bytes.  Returns 0 on platforms without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return peak


def two_layer_flow(design: Design, params: FlowParams | None = None) -> FlowResult:
    """The conventional baseline: every net channel-routed on m1/m2."""
    with instrument.span(SPAN_FLOW_TWO_LAYER):
        result = _two_layer_flow(design, params)
    return _attach_profile(result)


def _two_layer_flow(design: Design, params: FlowParams | None) -> FlowResult:
    params = params or FlowParams()
    nets = design.routable_nets()
    placement, global_route, routes, heights, side_widths = _run_channel_pipeline(
        design, nets, params
    )
    bounds = placement.realize(
        heights,
        left_width=side_widths[0],
        right_width=side_widths[1],
        margin=CORE_MARGIN,
    )
    wire, vias = _level_a_wire_and_vias(
        global_route, routes, placement, heights, side_widths, params.channel_pitch
    )
    result = FlowResult(
        flow="two-layer-channel",
        design=design.name,
        bounds=bounds,
        wire_length=wire,
        via_count=vias,
        channel_tracks=[r.tracks for r in routes],
        channel_heights=heights,
        side_widths=side_widths,
        placement=placement,
        global_route=global_route,
        channel_routes=routes,
    )
    return _maybe_check(result, params)


def overcell_flow(design: Design, params: FlowParams | None = None) -> FlowResult:
    """The paper's flow: set A in channels, set B over the cells."""
    with instrument.span(SPAN_FLOW_OVERCELL):
        result = _overcell_flow(design, params)
    return _attach_profile(result)


def _overcell_flow(design: Design, params: FlowParams | None) -> FlowResult:
    params = params or FlowParams()
    set_a, set_b, placement, global_route, routes, heights, side_widths, bounds = (
        realize_level_a(design, params)
    )
    wire_a, vias_a = _level_a_wire_and_vias(
        global_route, routes, placement, heights, side_widths, params.channel_pitch
    )
    levelb, iterate_report = _route_levelb(
        levelb_router(bounds, set_b, params), params
    )
    result = FlowResult(
        flow=f"overcell-{2 + 2 * params.planes}layer",
        design=design.name,
        bounds=bounds,
        wire_length=wire_a + levelb.total_wire_length,
        via_count=vias_a + levelb.total_vias,
        channel_tracks=[r.tracks for r in routes],
        channel_heights=heights,
        side_widths=side_widths,
        completion=levelb.completion_rate,
        placement=placement,
        global_route=global_route,
        channel_routes=routes,
        levelb=levelb,
    )
    pins_b = sum(n.degree for n in set_b)
    result.notes.update(
        level_a_nets=len(set_a),
        level_b_nets=len(set_b),
        # Partition by name: the checker's layer-assignment rule
        # (inv.layer) verifies the level B result against these.
        level_a_net_names=sorted(n.name for n in set_a),
        level_b_net_names=sorted(n.name for n in set_b if n.degree >= 2),
        level_a_avg_pins=(
            sum(n.degree for n in set_a) / len(set_a) if set_a else 0.0
        ),
        level_b_pins=pins_b,
        level_a_wire=wire_a,
        level_b_wire=levelb.total_wire_length,
        objective=params.objective,
        # Per-net via breakdown (corner vias + terminal stacks), the
        # quantity objective="vias" minimizes; summed in
        # ``level_b_vias`` for quick comparison across objectives.
        level_b_vias=levelb.total_vias,
        level_b_net_vias={r.net.name: r.via_count for r in levelb.routed},
    )
    if iterate_report is not None:
        result.notes["iterate"] = iterate_report.to_dict()
    return _maybe_check(result, params)


def multilayer_channel_flow(
    design: Design,
    params: FlowParams | None = None,
    *,
    model: str = "optimistic",
) -> FlowResult:
    """Table 3's comparison: a multi-layer *channel* router.

    Three models, selected by ``model``:

    ``"optimistic"`` (default)
        The paper's assumption - channel areas (between-row heights
        and side-channel widths) shrink by :data:`CHANNEL_AREA_FACTOR`
        (0.5) relative to the two-layer result.
    ``"design-rule"``
        Halve the track counts but re-space tracks at the coarser
        upper-layer pitch - the paper's argument for why 50 % fewer
        tracks is not 50 % less area.
    ``"hvh"``
        Actually route each channel with the
        :class:`~repro.channels.HVHChannelRouter` (three layers by
        adjacent-track pairing) and space the resulting physical rows
        at the upper-layer pitch.
    """
    with instrument.span(SPAN_FLOW_ML_CHANNEL):
        result = _multilayer_channel_flow(design, params, model=model)
    return _attach_profile(result)


def _multilayer_channel_flow(
    design: Design,
    params: FlowParams | None,
    *,
    model: str,
) -> FlowResult:
    params = params or FlowParams()
    if model not in ("optimistic", "design-rule", "hvh"):
        raise ValueError(f"unknown multilayer channel model {model!r}")
    nets = design.routable_nets()
    placement, global_route, routes, heights, side_widths = _run_channel_pipeline(
        design, nets, params
    )
    pitch = params.channel_pitch
    if model == "hvh":
        from repro.channels import HVHChannelRouter

        ml_pitch = max(layer.pitch for layer in params.technology.layers)
        hvh = HVHChannelRouter()
        hvh_results = [hvh.route(spec.problem) for spec in global_route.specs]
        routes = [r.route for r in hvh_results]
        heights = []
        for result in hvh_results:
            if result.route.tracks == 0 and not result.route.jogs:
                heights.append(min(pitch, ml_pitch))
            else:
                heights.append((result.route.tracks + 1) * ml_pitch)
        # Side-channel verticals gain a second vertical layer in a
        # four-layer process: halve the crossing count, coarser pitch.
        new_side = []
        for width in side_widths:
            crossings = max(0, width // pitch - 1)
            reduced = math.ceil(crossings / 2)
            new_side.append((reduced + 1) * ml_pitch if reduced else 0)
        side_widths = (new_side[0], new_side[1])
        flow_name = "4layer-channel-hvh"
    elif model == "design-rule":
        ml_pitch = max(layer.pitch for layer in params.technology.layers)
        new_heights = []
        for route, h in zip(routes, heights):
            if route.tracks == 0:
                new_heights.append(min(h, ml_pitch))
            else:
                tracks = math.ceil(route.tracks / 2)
                new_heights.append((tracks + 1) * ml_pitch)
        heights = new_heights
        new_side = []
        for width in side_widths:
            crossings = max(0, width // pitch - 1)
            reduced = math.ceil(crossings / 2)
            new_side.append((reduced + 1) * ml_pitch if reduced else 0)
        side_widths = (new_side[0], new_side[1])
        flow_name = "4layer-channel-design-rule"
    else:
        heights = [max(1, math.ceil(h * CHANNEL_AREA_FACTOR)) for h in heights]
        side_widths = (
            math.ceil(side_widths[0] * CHANNEL_AREA_FACTOR),
            math.ceil(side_widths[1] * CHANNEL_AREA_FACTOR),
        )
        flow_name = "4layer-channel-optimistic"
    bounds = placement.realize(
        heights,
        left_width=side_widths[0],
        right_width=side_widths[1],
        margin=CORE_MARGIN,
    )
    wire, vias = _level_a_wire_and_vias(
        global_route, routes, placement, heights, side_widths, pitch
    )
    result = FlowResult(
        flow=flow_name,
        design=design.name,
        bounds=bounds,
        wire_length=wire,
        via_count=vias,
        channel_tracks=[r.tracks for r in routes],
        channel_heights=heights,
        side_widths=side_widths,
        placement=placement,
        global_route=global_route,
        channel_routes=routes,
    )
    result.notes["model"] = {
        "optimistic": f"optimistic {CHANNEL_AREA_FACTOR:.0%} "
        "channel-area scale",
        "design-rule": "design-rule-aware track halving",
        "hvh": "real HVH three-layer channel routing",
    }[model]
    return _maybe_check(result, params)


#: Every flow by name: the one table the CLI, the serve protocol and
#: the batch runner read.
FLOWS = {
    "two-layer": two_layer_flow,
    "overcell": overcell_flow,
    "ml-channel": multilayer_channel_flow,
}
