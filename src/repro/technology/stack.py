"""Reserved-layer routing planes: the generalized over-cell stack.

The paper routes level B on exactly one reserved-layer pair
(metal3 vertical / metal4 horizontal).  Modern stacks offer several
such pairs, so the router is parameterized over a :class:`LayerStack`:
the channel pair (metal1/metal2) plus an ordered sequence of
:class:`RoutingPlane` objects, one per over-cell pair.  Plane ``p``
owns metal ``3 + 2p`` (vertical) and metal ``4 + 2p`` (horizontal);
each plane keeps its own pitch, direction assignment and resistance
profile via the :class:`~repro.technology.layers.Layer` objects it
wraps.

A net assigned to plane ``p > 0`` pays for its altitude: every pin
connection must climb ``2p`` extra via levels, and that through-stack
physically occupies the corner cell on every lower plane.  The depth
is exposed here (:meth:`RoutingPlane.stack_via_depth`,
:meth:`LayerStack.via_depth`); the plane-assignment pass is what
prices it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.technology.layers import Layer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.technology.rules import Technology

__all__ = ["LayerStack", "RoutingPlane", "plane_layer_indices"]


def plane_layer_indices(plane: int) -> tuple[int, int]:
    """(vertical, horizontal) metal indices of over-cell plane ``plane``.

    Plane 0 is the paper's metal3/metal4 pair; each further plane sits
    one reserved pair higher.
    """
    if plane < 0:
        raise ValueError(f"plane index must be >= 0, got {plane}")
    return (3 + 2 * plane, 4 + 2 * plane)


@dataclass(frozen=True)
class RoutingPlane:
    """One reserved-layer pair of the over-cell stack.

    ``index`` is the 0-based plane number (plane 0 = metal3/metal4);
    ``vertical``/``horizontal`` are the two layers the plane routes on
    under the reserved-layer model.
    """

    index: int
    vertical: Layer
    horizontal: Layer

    def __post_init__(self) -> None:
        want_v, want_h = plane_layer_indices(self.index)
        if (self.vertical.index, self.horizontal.index) != (want_v, want_h):
            raise ValueError(
                f"plane {self.index} must pair metal{want_v}/metal{want_h}, "
                f"got metal{self.vertical.index}/metal{self.horizontal.index}"
            )
        if not self.vertical.is_vertical:
            raise ValueError(f"{self.vertical.name} must route vertically")
        if not self.horizontal.is_horizontal:
            raise ValueError(f"{self.horizontal.name} must route horizontally")

    @property
    def v_pitch(self) -> int:
        return self.vertical.pitch

    @property
    def h_pitch(self) -> int:
        return self.horizontal.pitch

    @property
    def layer_indices(self) -> tuple[int, int]:
        """(vertical, horizontal) metal indices."""
        return (self.vertical.index, self.horizontal.index)

    @property
    def label(self) -> str:
        """Human-readable pair label, e.g. ``"metal3/metal4"``."""
        return f"{self.vertical.name}/{self.horizontal.name}"

    def stack_via_depth(self) -> int:
        """Extra via levels (vs plane 0) a terminal stack must climb."""
        return 2 * self.index


@dataclass(frozen=True)
class LayerStack:
    """The channel pair plus the ordered over-cell planes.

    Built from a :class:`~repro.technology.rules.Technology` via
    :meth:`from_technology`; the technology's own validation guarantees
    a contiguous 1-based stack, this class adds the reserved-layer
    pairing on top (odd layers vertical, even layers horizontal).
    """

    channel: tuple[Layer, Layer]
    planes: tuple[RoutingPlane, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for layer in self.all_layers():
            if layer.pitch <= 0:
                raise ValueError(
                    f"{layer.name}: pitch must be positive, got {layer.pitch}"
                )
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r} in stack")
            seen.add(layer.name)

    @staticmethod
    def from_technology(tech: "Technology") -> "LayerStack":
        """Pair layers 3, 4, 5, ... into over-cell planes.

        A trailing unpaired layer (odd ``num_layers``) is ignored: a
        lone vertical layer with no horizontal partner cannot carry a
        reserved-layer plane.
        """
        if tech.num_layers < 2:
            raise ValueError("a layer stack needs at least the channel pair")
        channel = (tech.layer(1), tech.layer(2))
        planes = []
        for p in range((tech.num_layers - 2) // 2):
            v_idx, h_idx = plane_layer_indices(p)
            planes.append(
                RoutingPlane(p, tech.layer(v_idx), tech.layer(h_idx))
            )
        return LayerStack(channel=channel, planes=tuple(planes))

    def all_layers(self) -> list[Layer]:
        """Every layer in the stack, channel pair first."""
        layers = list(self.channel)
        for plane in self.planes:
            layers.append(plane.vertical)
            layers.append(plane.horizontal)
        return layers

    @property
    def num_planes(self) -> int:
        return len(self.planes)

    def plane(self, index: int) -> RoutingPlane:
        if not 0 <= index < len(self.planes):
            raise IndexError(
                f"no over-cell plane {index} (stack has {len(self.planes)})"
            )
        return self.planes[index]

    def labels(self) -> list[str]:
        """Pair labels for every plane, lowest first."""
        return [p.label for p in self.planes]

    def via_depth(self, plane_index: int) -> int:
        """Extra via levels a plane's terminal stacks pay vs plane 0."""
        return self.plane(plane_index).stack_via_depth()
