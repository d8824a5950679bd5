"""Nets: named collections of pins with criticality attributes."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Point
from repro.geometry.point import bounding_box_half_perimeter
from repro.netlist.pin import Pin
from repro.technology import NetClass


@dataclass
class Net:
    """A multi-terminal net.

    Attributes
    ----------
    name:
        Unique net name within a design.
    pins:
        The net's terminals (at least two for a routable net).
    is_critical:
        Marks critical/timing nets.  The paper's experiments route
        critical and timing nets in level A (channels, fine-pitch
        m1/m2) and everything else in level B over the cells.
    is_sensitive:
        Marks nets that must not run parallel to other wiring for long
        stretches (the paper's cross-talk case); the level B router
        adds a parallel-run cost term when sensitive nets are present.
    weight:
        User net weight; available to ordering criteria.
    net_class:
        Width class (:class:`~repro.technology.NetClass`): signal nets
        route at one track, clock and power nets occupy wider multi-track
        footprints per the technology's spacing tables.
    """

    name: str
    pins: list[Pin] = field(default_factory=list)
    is_critical: bool = False
    is_sensitive: bool = False
    weight: float = 1.0
    net_class: NetClass = NetClass.SIGNAL

    def add_pin(self, pin: Pin) -> None:
        """Attach ``pin`` and set its back-reference."""
        if pin.net is not None and pin.net is not self:
            raise ValueError(f"pin {pin.full_name} already on net {pin.net.name}")
        pin.net = self
        self.pins.append(pin)

    @property
    def degree(self) -> int:
        """Number of terminals."""
        return len(self.pins)

    def pin_positions(self) -> list[Point]:
        """Absolute positions of all terminals (requires placement)."""
        return [pin.position for pin in self.pins]

    @property
    def half_perimeter(self) -> int:
        """HPWL estimate; the paper's "longest distance" ordering key."""
        return bounding_box_half_perimeter(self.pin_positions())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Net({self.name}, {self.degree} pins)"

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other
