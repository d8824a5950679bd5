"""The :class:`Design` container tying cells and nets together."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Rect
from repro.netlist.cell import Cell, Edge
from repro.netlist.net import Net
from repro.netlist.pin import Pin
from repro.technology import NetClass


@dataclass(frozen=True)
class DesignStats:
    """Summary statistics of a design (the Table 1 columns)."""

    name: str
    num_cells: int
    num_nets: int
    num_pins: int
    avg_pins_per_net: float
    total_cell_area: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.num_cells} cells, {self.num_nets} nets, "
            f"{self.num_pins} pins ({self.avg_pins_per_net:.2f}/net)"
        )


class Design:
    """A macro-cell design: named cells plus named nets.

    The class is a plain container with construction helpers and
    validation; placement and routing state live in the flow layer so a
    design can be run through several flows unchanged.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.cells: dict[str, Cell] = {}
        self.nets: dict[str, Net] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_cell(self, name: str, width: int, height: int) -> Cell:
        """Create and register a cell."""
        if name in self.cells:
            raise ValueError(f"duplicate cell {name!r}")
        cell = Cell(name=name, width=width, height=height)
        self.cells[name] = cell
        return cell

    def add_net(
        self,
        name: str,
        *,
        is_critical: bool = False,
        weight: float = 1.0,
        net_class: NetClass = NetClass.SIGNAL,
    ) -> Net:
        """Create and register a net."""
        if name in self.nets:
            raise ValueError(f"duplicate net {name!r}")
        net = Net(
            name=name, is_critical=is_critical, weight=weight, net_class=net_class
        )
        self.nets[name] = net
        return net

    def add_pin(
        self, cell_name: str, pin_name: str, edge: Edge, offset: int
    ) -> Pin:
        """Create a pin on ``cell_name`` and attach it to the cell."""
        cell = self.cells[cell_name]
        pin = Pin(name=pin_name, cell=cell, edge=edge, offset=offset)
        cell.add_pin(pin)
        return pin

    def connect(self, net_name: str, pin: Pin) -> None:
        """Attach an existing pin to an existing net."""
        self.nets[net_name].add_pin(pin)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_placed(self) -> bool:
        return all(cell.is_placed for cell in self.cells.values())

    def routable_nets(self) -> list[Net]:
        """Nets with at least two pins, in insertion order."""
        return [net for net in self.nets.values() if net.degree >= 2]

    def cell_bounds(self) -> Rect:
        """Bounding box of all placed cells."""
        boxes = [cell.bounds for cell in self.cells.values()]
        if not boxes:
            raise ValueError("design has no cells")
        out = boxes[0]
        for box in boxes[1:]:
            out = out.hull(box)
        return out

    def stats(self) -> DesignStats:
        """Table 1-style statistics."""
        nets = self.routable_nets()
        num_pins = sum(net.degree for net in nets)
        return DesignStats(
            name=self.name,
            num_cells=len(self.cells),
            num_nets=len(nets),
            num_pins=num_pins,
            avg_pins_per_net=(num_pins / len(nets)) if nets else 0.0,
            total_cell_area=sum(c.area for c in self.cells.values()),
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Structural checks; returns a list of problem descriptions."""
        problems: list[str] = []
        for net in self.nets.values():
            if net.degree < 2:
                problems.append(f"net {net.name} has fewer than two pins")
            for pin in net.pins:
                if pin.net is not net:
                    problems.append(
                        f"pin {pin.full_name} back-reference mismatch on {net.name}"
                    )
        seen_pins = set()
        for cell in self.cells.values():
            for pin in cell.pins:
                if id(pin) in seen_pins:
                    problems.append(f"pin {pin.full_name} attached twice")
                seen_pins.add(id(pin))
        if self.is_placed:
            cells = list(self.cells.values())
            for i, a in enumerate(cells):
                for b in cells[i + 1 :]:
                    if a.bounds.overlaps_open(b.bounds):
                        problems.append(
                            f"cells {a.name} and {b.name} overlap"
                        )
        return problems

    def check(self) -> None:
        """Raise :class:`ValueError` when :meth:`validate` finds problems."""
        problems = self.validate()
        if problems:
            raise ValueError("; ".join(problems))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Design({self.name}: {len(self.cells)} cells, {len(self.nets)} nets)"
