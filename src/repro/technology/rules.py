"""Technology definitions: layer stacks, via rules and net classes."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.technology.layers import Layer, RoutingDirection


def plane_layer_indices(plane: int) -> tuple[int, int]:
    """(vertical, horizontal) metal indices of over-cell plane ``plane``.

    Plane 0 is the paper's metal3/metal4 pair; each further plane sits
    one reserved pair higher.
    """
    if plane < 0:
        raise ValueError(f"plane index must be >= 0, got {plane}")
    return (3 + 2 * plane, 4 + 2 * plane)


class NetClass(enum.Enum):
    """Width class of a net: how many adjacent tracks its wires occupy.

    The paper routes every net at minimum width; real stackups route
    clock trees and power distribution as wide wires.  Under the track
    model a wide wire is drawn over several adjacent tracks of its
    layer — :attr:`track_span` is that count, and
    :meth:`Technology.net_footprint` turns it into the (span, guard)
    pair the occupancy grid claims.  ``SIGNAL`` is a single track and
    preserves historical behaviour exactly.
    """

    SIGNAL = "signal"
    CLOCK = "clock"
    POWER = "power"

    @property
    def track_span(self) -> int:
        return _NET_CLASS_SPANS[self]


_NET_CLASS_SPANS = {
    NetClass.SIGNAL: 1,
    NetClass.CLOCK: 2,
    NetClass.POWER: 3,
}


@dataclass(frozen=True)
class ViaRule:
    """A via between two adjacent metal layers.

    ``size`` is the via cut dimension in lambda.  Vias between upper
    layers are larger, per the paper's discussion of multi-layer design
    rules.  ``cost`` is the relative price of cutting one such via —
    the knob the via-minimization objective (``objective="vias"``)
    reads; ``1.0`` everywhere reproduces the uniform pricing the
    presets always had.
    """

    lower: int
    upper: int
    size: int
    cost: float = 1.0

    def __post_init__(self) -> None:
        if self.upper != self.lower + 1:
            raise ValueError("vias connect adjacent layers only")
        if self.size <= 0:
            raise ValueError("via size must be positive")
        if not 0 < self.cost < math.inf:
            raise ValueError(
                f"via cost must be finite and positive, got {self.cost}"
            )


@dataclass(frozen=True)
class Technology:
    """A routing technology: ordered layer stack plus via rules.

    The two presets used throughout the reproduction are created with
    :meth:`two_layer` (metal1/metal2 channel routing) and
    :meth:`four_layer` (adds the over-cell pair metal3/metal4 with
    coarser pitch, matching the paper's assumption that the upper
    layers run wider lines over the cells).

    Above the channel pair the layers pair into over-cell planes
    (:func:`plane_layer_indices`): :attr:`num_overcell_planes` counts
    them and :meth:`plane` returns one.  Construction checks what level
    B relies on: the channel pair is present, layer names are unique
    and every complete over-cell pair runs vertical, then horizontal.
    """

    name: str
    layers: tuple[Layer, ...]
    vias: tuple[ViaRule, ...]

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise ValueError("a layer stack needs at least the channel pair")
        indices = [layer.index for layer in self.layers]
        if indices != list(range(1, len(self.layers) + 1)):
            raise ValueError("layers must be contiguous and 1-based")
        seen: set[str] = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r} in stack")
            seen.add(layer.name)
        for p in range(self.num_overcell_planes):
            vertical, horizontal = self.plane(p)
            if not vertical.is_vertical:
                raise ValueError(f"{vertical.name} must route vertically")
            if not horizontal.is_horizontal:
                raise ValueError(f"{horizontal.name} must route horizontally")
        via_pairs = {(v.lower, v.upper) for v in self.vias}
        needed = {(i, i + 1) for i in range(1, len(self.layers))}
        if via_pairs != needed:
            raise ValueError(
                f"via rules {sorted(via_pairs)} do not match stack {sorted(needed)}"
            )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def layer(self, index: int) -> Layer:
        """The layer with 1-based ``index``."""
        if not 1 <= index <= len(self.layers):
            raise KeyError(f"no metal{index} in {self.name}")
        return self.layers[index - 1]

    def via(self, lower: int) -> ViaRule:
        """The via rule from metal ``lower`` to metal ``lower + 1``."""
        for rule in self.vias:
            if rule.lower == lower:
                return rule
        raise KeyError(f"no via rule from metal{lower}")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_overcell_planes(self) -> int:
        """How many complete reserved pairs sit above the channel pair.

        A trailing unpaired layer (odd ``num_layers``) carries no
        plane: a lone vertical layer has no horizontal partner.
        """
        return max(0, (self.num_layers - 2) // 2)

    def plane(self, plane: int) -> tuple[Layer, Layer]:
        """Over-cell plane ``plane``'s (vertical, horizontal) layers."""
        if not 0 <= plane < self.num_overcell_planes:
            raise IndexError(
                f"no over-cell plane {plane} "
                f"({self.name} has {self.num_overcell_planes})"
            )
        v_idx, h_idx = plane_layer_indices(plane)
        return self.layer(v_idx), self.layer(h_idx)

    # ------------------------------------------------------------------
    # Width classes and via pricing (the data-driven rules model)
    # ------------------------------------------------------------------
    def net_footprint(self, net_class: NetClass, plane: int) -> tuple[int, int]:
        """``(span, guard)`` a net of ``net_class`` claims on ``plane``.

        ``span`` adjacent tracks carry metal (the class's
        :attr:`NetClass.track_span`); ``guard`` further tracks on *each*
        side must stay clear of foreign wiring so the plane's
        width-dependent spacing tables are met.  The guard is the max
        over the plane's two layers, since the occupancy grid applies
        one footprint to both directions.  ``SIGNAL`` on any preset
        technology is ``(1, 0)`` — the historical single-track claim.
        """
        span = net_class.track_span
        return span, max(layer.guard_tracks(span) for layer in self.plane(plane))

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @staticmethod
    def two_layer() -> "Technology":
        """metal1 (vertical) + metal2 (horizontal): the channel pair."""
        from repro.technology.ingest import technology_from_stackup

        return technology_from_stackup(
            {
                "name": "generic-2L",
                "metals": [
                    {"name": "metal1", "index": 1, "direction": "vertical",
                     "pitch": 8, "width": 4},
                    {"name": "metal2", "index": 2, "direction": "horizontal",
                     "pitch": 8, "width": 4},
                ],
                "vias": [{"lower": 1, "upper": 2, "size": 4}],
            }
        )

    @staticmethod
    def four_layer() -> "Technology":
        """The paper's stack: m1/m2 for cells+channels, m3/m4 over-cell.

        metal3 runs vertical, metal4 horizontal; both have coarser pitch
        and wider lines than the lower pair, which is how the paper
        justifies routing long nets over the cells with shorter delays
        and why a 50 % track cut in a multi-layer channel is not a 50 %
        area cut.  :func:`ensure_overcell_planes` grows it by further
        over-cell pairs.

        The preset is *data*, not code: it is expressed as a stackup
        document (:func:`repro.technology.ingest.preset_stackup`) and
        built through the same ingestion path as a user-supplied JSON
        file, so the hard-coded and ingested models cannot drift.
        """
        from repro.technology.ingest import preset_stackup, technology_from_stackup

        return technology_from_stackup(preset_stackup())


def ensure_overcell_planes(tech: Technology, planes: int) -> Technology:
    """``tech``, extended with extrapolated pairs if it is too short.

    The one rule that grows a stack: every flow, the routing report and
    the level B router's default technology go through it.  A stack
    that already has ``planes`` over-cell planes is returned untouched;
    otherwise it is grown by extrapolating the process trend from the
    topmost existing pair (pitch +4 lambda per pair, width = pitch/2,
    sheet resistance x0.75, via size +2 per level).
    """
    have = tech.num_overcell_planes
    if planes <= have:
        return tech
    layers = list(tech.layers)
    vias = list(tech.vias)
    # Drop a trailing unpaired layer from the pairing arithmetic: new
    # pairs are appended after the last *complete* pair.
    top = layers[2 + 2 * have - 1]
    for p in range(have, planes):
        v_idx, h_idx = plane_layer_indices(p)
        if v_idx <= tech.num_layers:
            raise ValueError(
                f"{tech.name} has an unpaired metal{v_idx}; cannot extend"
            )
        pitch = top.pitch + 4 * (p - have + 1)
        width = pitch // 2
        scale = 0.75 ** (p - have + 1)
        layers.append(
            Layer(v_idx, f"metal{v_idx}", RoutingDirection.VERTICAL,
                  pitch=pitch, width=width,
                  sheet_resistance=top.sheet_resistance * scale,
                  cap_per_lambda=top.cap_per_lambda),
        )
        layers.append(
            Layer(h_idx, f"metal{h_idx}", RoutingDirection.HORIZONTAL,
                  pitch=pitch, width=width,
                  sheet_resistance=top.sheet_resistance * scale,
                  cap_per_lambda=top.cap_per_lambda),
        )
        last_size = max(v.size for v in vias)
        vias.append(ViaRule(v_idx - 1, v_idx, size=last_size + 2))
        vias.append(ViaRule(v_idx, h_idx, size=last_size + 4))
    return Technology(
        name=f"{tech.name}+{planes - have}p",
        layers=tuple(layers),
        vias=tuple(vias),
    )
