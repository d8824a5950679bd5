"""Delay models for routed and estimated nets."""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist import Net
from repro.technology import Technology
from repro.timing.rctree import RCTree


@dataclass(frozen=True)
class DriverModel:
    """A simple linear driver plus sink load model.

    ``resistance`` in ohms (the driving gate's output resistance),
    ``sink_cap`` in fF per sink pin, ``via_resistance`` in ohms per
    layer-change via along the route.
    """

    resistance: float = 200.0
    sink_cap: float = 5.0
    via_resistance: float = 1.5

    def __post_init__(self) -> None:
        if min(self.resistance, self.sink_cap, self.via_resistance) < 0:
            raise ValueError("driver parameters must be non-negative")


_DRIVER_NODE = "__driver__"


def build_levelb_rctree(
    routed, technology: Technology, driver: DriverModel = DriverModel()
) -> RCTree:
    """RC tree of one level B :class:`~repro.core.router.RoutedNet`.

    Segments take the parasitics of the net's own over-cell plane
    (``routed.plane``): horizontal segments its horizontal layer,
    vertical segments its vertical layer (the reserved-layer model) -
    metal4/metal3 on plane 0, metal6/metal5 on plane 1, and so on.
    Corner via resistance is folded into the segment entering the
    corner.  The driver attaches at the net's first pin; every other pin
    gets a sink load.
    """
    vertical, horizontal = technology.plane(routed.plane)
    tree = RCTree()
    source = routed.net.pins[0].position
    tree.add_node_cap(source, 0.0)
    for conn in routed.connections:
        first = True
        for seg in conn.path:
            if seg.is_point:
                continue
            layer = horizontal if seg.is_horizontal else vertical
            resistance = layer.resistance_per_lambda * seg.length
            if not first:
                resistance += driver.via_resistance  # corner via entering
            capacitance = layer.cap_per_lambda * seg.length
            tree.add_wire(seg.a, seg.b, resistance, capacitance)
            first = False
    for pin in routed.net.pins[1:]:
        tree.add_node_cap(pin.position, driver.sink_cap)
    tree.add_wire(
        _DRIVER_NODE, source, driver.resistance, 0.0
    )
    return tree


def levelb_net_delays(
    routed, technology: Technology, driver: DriverModel = DriverModel()
) -> dict[str, float]:
    """Elmore delay (ps) from the net's first pin to every other pin.

    Returns ``{pin full name: delay_ps}``; pins whose connection failed
    (incomplete nets) are omitted.
    """
    if not routed.connections:
        return {}
    tree = build_levelb_rctree(routed, technology, driver)
    out: dict[str, float] = {}
    for pin in routed.net.pins[1:]:
        position = pin.position
        if not tree.contains(position):
            continue
        try:
            out[pin.full_name] = tree.elmore_delay(_DRIVER_NODE, position)
        except ValueError:
            continue
    return out


def channel_net_delay_estimate(
    net: Net, technology: Technology, driver: DriverModel = DriverModel()
) -> float:
    """Lumped delay estimate (ps) for a channel-routed (m1/m2) net.

    Channel routing geometry does not map pin-to-pin paths directly
    (trunks serve all pins), so the estimate uses the net's
    half-perimeter as wire length with averaged m1/m2 parasitics and
    the standard lumped form

        T = R_drv*(C_wire + n*C_sink) + R_wire*(C_wire/2 + n*C_sink).
    """
    length = net.half_perimeter
    m1 = technology.layer(1)
    m2 = technology.layer(2)
    r_per = (m1.resistance_per_lambda + m2.resistance_per_lambda) / 2.0
    c_per = (m1.cap_per_lambda + m2.cap_per_lambda) / 2.0
    r_wire = r_per * length
    c_wire = c_per * length
    sinks = max(1, net.degree - 1)
    c_sinks = sinks * driver.sink_cap
    delay_ffs = driver.resistance * (c_wire + c_sinks) + r_wire * (
        c_wire / 2.0 + c_sinks
    )
    return delay_ffs / 1000.0
