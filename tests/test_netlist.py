"""Tests for repro.netlist (Cell, Pin, Net, Design)."""

import pytest

from repro.geometry import Point
from repro.netlist import Cell, Design, Edge, Net, Pin


class TestCell:
    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            Cell("bad", 0, 10)

    def test_bounds_require_placement(self):
        cell = Cell("a", 10, 20)
        assert not cell.is_placed
        with pytest.raises(RuntimeError):
            _ = cell.bounds
        cell.place(5, 7)
        assert cell.bounds.x2 == 15 and cell.bounds.y2 == 27

    def test_pin_positions_all_edges(self):
        cell = Cell("a", 10, 20)
        cell.place(100, 200)
        positions = {}
        for edge, offset in [
            (Edge.BOTTOM, 3),
            (Edge.TOP, 4),
            (Edge.LEFT, 5),
            (Edge.RIGHT, 6),
        ]:
            pin = Pin("p" + edge.value, cell, edge, offset)
            cell.add_pin(pin)
            positions[edge] = pin.position
        assert positions[Edge.BOTTOM] == Point(103, 200)
        assert positions[Edge.TOP] == Point(104, 220)
        assert positions[Edge.LEFT] == Point(100, 205)
        assert positions[Edge.RIGHT] == Point(110, 206)

    def test_pin_offset_validated(self):
        cell = Cell("a", 10, 20)
        with pytest.raises(ValueError):
            cell.add_pin(Pin("p", cell, Edge.TOP, 11))
        with pytest.raises(ValueError):
            cell.add_pin(Pin("p", cell, Edge.LEFT, 21))
        cell.add_pin(Pin("ok", cell, Edge.LEFT, 20))  # boundary inclusive


class TestNet:
    def test_add_pin_sets_backref(self):
        cell = Cell("a", 10, 10)
        pin = Pin("p", cell, Edge.TOP, 1)
        net = Net("n")
        net.add_pin(pin)
        assert pin.net is net
        assert net.degree == 1

    def test_pin_cannot_join_two_nets(self):
        cell = Cell("a", 10, 10)
        pin = Pin("p", cell, Edge.TOP, 1)
        Net("n1").add_pin(pin)
        with pytest.raises(ValueError):
            Net("n2").add_pin(pin)

    def test_half_perimeter(self):
        cell = Cell("a", 10, 10)
        cell.place(0, 0)
        net = Net("n")
        for name, edge, off in [("p1", Edge.BOTTOM, 0), ("p2", Edge.TOP, 10)]:
            pin = Pin(name, cell, edge, off)
            cell.add_pin(pin)
            net.add_pin(pin)
        assert net.half_perimeter == 20  # (10-0) + (10-0)


class TestDesign:
    def make_design(self):
        d = Design("t")
        d.add_cell("a", 16, 16)
        d.add_cell("b", 16, 16)
        p1 = d.add_pin("a", "p1", Edge.TOP, 8)
        p2 = d.add_pin("b", "p2", Edge.BOTTOM, 8)
        net = d.add_net("n1")
        net.add_pin(p1)
        net.add_pin(p2)
        return d

    def test_duplicates_rejected(self):
        d = self.make_design()
        with pytest.raises(ValueError):
            d.add_cell("a", 5, 5)
        with pytest.raises(ValueError):
            d.add_net("n1")

    def test_stats(self):
        d = self.make_design()
        s = d.stats()
        assert s.num_cells == 2
        assert s.num_nets == 1
        assert s.num_pins == 2
        assert s.avg_pins_per_net == 2.0
        assert s.total_cell_area == 2 * 256

    def test_routable_nets_excludes_singletons(self):
        d = self.make_design()
        lone = d.add_net("lonely")
        lone.add_pin(d.add_pin("a", "px", Edge.TOP, 4))
        assert [n.name for n in d.routable_nets()] == ["n1"]

    def test_validate_detects_overlap(self):
        d = self.make_design()
        d.cells["a"].place(0, 0)
        d.cells["b"].place(8, 8)  # overlaps cell a
        problems = d.validate()
        assert any("overlap" in p for p in problems)

    def test_validate_detects_underconnected_net(self):
        d = Design("t")
        d.add_cell("a", 16, 16)
        net = d.add_net("n")
        net.add_pin(d.add_pin("a", "p", Edge.TOP, 4))
        assert any("fewer than two pins" in p for p in d.validate())

    def test_check_raises(self):
        d = Design("t")
        d.add_cell("a", 16, 16)
        net = d.add_net("n")
        net.add_pin(d.add_pin("a", "p", Edge.TOP, 4))
        with pytest.raises(ValueError):
            d.check()

    def test_cell_bounds(self):
        d = self.make_design()
        d.cells["a"].place(0, 0)
        d.cells["b"].place(50, 10)
        box = d.cell_bounds()
        assert (box.x1, box.y1, box.x2, box.y2) == (0, 0, 66, 26)

    def test_is_placed(self):
        d = self.make_design()
        assert not d.is_placed
        d.cells["a"].place(0, 0)
        assert not d.is_placed
        d.cells["b"].place(100, 0)
        assert d.is_placed
