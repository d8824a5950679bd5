"""Tests for the global router (channel decomposition)."""

import pytest

from repro.channels import GreedyChannelRouter
from repro.globalroute import GlobalRouter
from repro.netlist import Design, Edge
from repro.placement import RowPlacement


def make_rowed_design():
    """Three cells stacked in three rows (forced by tiny width target)."""
    d = Design("g")
    for i in range(3):
        d.add_cell(f"c{i}", 96, 48)
    pl = RowPlacement.build(d, row_width_target=100)
    assert pl.num_rows == 3
    return d, pl


class TestPinEntries:
    def test_same_channel_net(self):
        d, pl = make_rowed_design()
        rows = {name: r for name, r in pl.row_of_cell.items()}
        lower = next(n for n, r in rows.items() if r == 0)
        upper = next(n for n, r in rows.items() if r == 1)
        p1 = d.add_pin(lower, "a", Edge.TOP, 16)
        p2 = d.add_pin(upper, "b", Edge.BOTTOM, 48)
        net = d.add_net("n1")
        net.add_pin(p1)
        net.add_pin(p2)
        gr = GlobalRouter(pl).route([net], {net: 1})
        # Both pins face channel 1; no side channel use.
        assert not gr.side_uses
        spec = gr.specs[1]
        assert spec.problem.pin_count(1) == 2

    def test_cross_channel_net_uses_side(self):
        d, pl = make_rowed_design()
        rows = {name: r for name, r in pl.row_of_cell.items()}
        bottom_cell = next(n for n, r in rows.items() if r == 0)
        top_cell = next(n for n, r in rows.items() if r == 2)
        p1 = d.add_pin(bottom_cell, "a", Edge.BOTTOM, 16)  # channel 0
        p2 = d.add_pin(top_cell, "b", Edge.TOP, 16)  # channel 3
        net = d.add_net("n1")
        net.add_pin(p1)
        net.add_pin(p2)
        gr = GlobalRouter(pl).route([net], {net: 1})
        assert 1 in gr.side_uses
        use = gr.side_uses[1]
        assert (use.min_ch, use.max_ch) == (0, 3)
        assert len(use.exits) == 2  # one per touched channel
        # Each touched channel's problem sees pin + exit = 2 pins.
        for ch in (0, 3):
            assert gr.specs[ch].problem.pin_count(1) == 2

    def test_side_pick_prefers_near_edge(self):
        d, pl = make_rowed_design()
        rows = {name: r for name, r in pl.row_of_cell.items()}
        c0 = next(n for n, r in rows.items() if r == 0)
        c1 = next(n for n, r in rows.items() if r == 1)
        left_net = d.add_net("left")
        left_net.add_pin(d.add_pin(c0, "a", Edge.BOTTOM, 8))
        left_net.add_pin(d.add_pin(c1, "b", Edge.TOP, 8))
        right_net = d.add_net("right")
        right_net.add_pin(d.add_pin(c0, "c", Edge.BOTTOM, 88))
        right_net.add_pin(d.add_pin(c1, "d", Edge.TOP, 88))
        gr = GlobalRouter(pl).route(
            [left_net, right_net], {left_net: 1, right_net: 2}
        )
        assert gr.side_uses[1].side == "L"
        assert gr.side_uses[2].side == "R"

    def test_left_right_edge_pins_rejected(self):
        d, pl = make_rowed_design()
        cell = next(iter(d.cells))
        pin = d.add_pin(cell, "side", Edge.LEFT, 8)
        net = d.add_net("n")
        net.add_pin(pin)
        net.add_pin(d.add_pin(cell, "top", Edge.TOP, 8))
        with pytest.raises(ValueError, match="LEFT/RIGHT"):
            GlobalRouter(pl).route([net], {net: 1})

    def test_off_grid_pin_rejected(self):
        d, pl = make_rowed_design()
        cell = next(iter(d.cells))
        net = d.add_net("n")
        net.add_pin(d.add_pin(cell, "a", Edge.TOP, 9))  # not on pitch 8
        net.add_pin(d.add_pin(cell, "b", Edge.TOP, 16))
        with pytest.raises(ValueError, match="grid"):
            GlobalRouter(pl).route([net], {net: 1})

    def test_column_collision_nudged(self):
        d, pl = make_rowed_design()
        rows = {name: r for name, r in pl.row_of_cell.items()}
        c0 = next(n for n, r in rows.items() if r == 0)
        c1 = next(n for n, r in rows.items() if r == 1)
        # Two nets with pins at the same x on the same channel side.
        n1, n2 = d.add_net("n1"), d.add_net("n2")
        n1.add_pin(d.add_pin(c0, "a", Edge.TOP, 16))
        n1.add_pin(d.add_pin(c1, "b", Edge.BOTTOM, 32))
        n2.add_pin(d.add_pin(c0, "c", Edge.TOP, 16 + 0))  # same offset -> same x?
        n2.add_pin(d.add_pin(c1, "d", Edge.BOTTOM, 48))
        # cell_x may differ; force the collision by construction:
        gr = GlobalRouter(pl).route([n1, n2], {n1: 1, n2: 2})
        spec = gr.specs[1]
        # Both nets present with 2 pins each despite any collision.
        assert spec.problem.pin_count(1) == 2
        assert spec.problem.pin_count(2) == 2


class TestProfilesAndWidths:
    def make_routed(self):
        d, pl = make_rowed_design()
        rows = {name: r for name, r in pl.row_of_cell.items()}
        c0 = next(n for n, r in rows.items() if r == 0)
        c2 = next(n for n, r in rows.items() if r == 2)
        nets = []
        for i in range(3):
            net = d.add_net(f"n{i}")
            net.add_pin(d.add_pin(c0, f"a{i}", Edge.BOTTOM, 8 + 8 * i))
            net.add_pin(d.add_pin(c2, f"b{i}", Edge.TOP, 8 + 8 * i))
            nets.append(net)
        gr = GlobalRouter(pl).route(nets, {n: i + 1 for i, n in enumerate(nets)})
        return pl, gr

    def test_crossing_profile(self):
        pl, gr = self.make_routed()
        profile = gr.crossing_profile("L", pl.num_rows)
        assert profile == [3, 3, 3]

    def test_side_widths(self):
        pl, gr = self.make_routed()
        left, right = gr.side_widths(pl.num_rows)
        assert left == (3 + 1) * 8
        assert right == 0

    def test_side_wire_length(self):
        pl, gr = self.make_routed()
        row_heights = [r.height for r in pl.rows]
        heights = [8] * pl.channel_count
        total = gr.side_wire_length(row_heights, heights)
        # Each of 3 nets passes 3 rows (48 each) + 2 interior channels.
        assert total == 3 * (3 * 48 + 2 * 8)

    def test_channels_route_cleanly(self):
        _, gr = self.make_routed()
        for spec in gr.specs:
            route = GreedyChannelRouter().route(spec.problem)
            route.check(spec.problem)


class TestHelpers:
    def test_column_x_is_core_relative(self):
        from repro.channels import ChannelProblem
        from repro.globalroute.router import ChannelSpec

        spec = ChannelSpec(
            index=0, problem=ChannelProblem(top=[0], bottom=[0]), base_col=4
        )
        assert spec.column_x(4, 8) == 0
        assert spec.column_x(7, 8) == 24
        assert spec.column_x(0, 8) == -32  # exit columns land outside

    def test_rows_crossed_empty_for_same_channel(self):
        from repro.globalroute.router import NetSideUse

        use = NetSideUse(net_id=1, side="L", min_ch=2, max_ch=2)
        assert list(use.rows_crossed) == []

    def test_crossing_profile_filters_side_and_range(self):
        from repro.globalroute.router import GlobalRoute, NetSideUse

        gr = GlobalRoute(
            specs=[],
            side_uses={
                1: NetSideUse(net_id=1, side="L", min_ch=0, max_ch=2),
                2: NetSideUse(net_id=2, side="R", min_ch=0, max_ch=5),
            },
            pitch=8,
        )
        assert gr.crossing_profile("L", 2) == [1, 1]
        # Out-of-range rows of the oversized R use are dropped.
        assert gr.crossing_profile("R", 2) == [1, 1]

    def test_side_widths_zero_without_uses(self):
        from repro.globalroute.router import GlobalRoute

        gr = GlobalRoute(specs=[], side_uses={}, pitch=8)
        assert gr.side_widths(3) == (0, 0)

    def test_side_wire_length_adjacent_channels(self):
        from repro.globalroute.router import GlobalRoute, NetSideUse

        gr = GlobalRoute(
            specs=[],
            side_uses={1: NetSideUse(net_id=1, side="L", min_ch=1, max_ch=2)},
            pitch=8,
        )
        # Passes exactly one row, no interior channels.
        assert gr.side_wire_length([48, 40, 56], [8, 8, 8, 8]) == 40


class TestMultiPinNets:
    def test_three_channel_net_exits_every_touched_channel(self):
        d, pl = make_rowed_design()
        rows = {name: r for name, r in pl.row_of_cell.items()}
        c0 = next(n for n, r in rows.items() if r == 0)
        c1 = next(n for n, r in rows.items() if r == 1)
        c2 = next(n for n, r in rows.items() if r == 2)
        net = d.add_net("n1")
        net.add_pin(d.add_pin(c0, "a", Edge.BOTTOM, 16))  # channel 0
        net.add_pin(d.add_pin(c1, "b", Edge.TOP, 16))  # channel 2
        net.add_pin(d.add_pin(c2, "c", Edge.TOP, 16))  # channel 3
        gr = GlobalRouter(pl).route([net], {net: 1})
        use = gr.side_uses[1]
        assert (use.min_ch, use.max_ch) == (0, 3)
        assert sorted(ch for ch, _ in use.exits) == [0, 2, 3]
        # Every touched channel's problem gained an exit pin.
        for ch, _col in use.exits:
            assert gr.specs[ch].problem.pin_count(1) >= 2
