"""Tests for the Elmore timing substrate."""

import dataclasses

import pytest

from repro.bench_suite import SUITES, random_design
from repro.flow import FlowParams, overcell_flow
from repro.geometry import Rect
from repro.netlist import Design, Edge
from repro.core import LevelBRouter
from repro.technology import Technology
from repro.timing import (
    DriverModel,
    RCTree,
    channel_net_delay_estimate,
    levelb_net_delays,
)
from repro.timing.delay import build_levelb_rctree


class TestRCTree:
    def test_single_wire(self):
        tree = RCTree()
        tree.add_wire("a", "b", resistance=100.0, capacitance=10.0)
        # C split half/half: subtree below the wire holds 5 fF.
        assert tree.elmore_delay("a", "b") == pytest.approx(100 * 5 / 1000)

    def test_chain_additivity(self):
        tree = RCTree()
        tree.add_wire("a", "b", 100.0, 10.0)
        tree.add_wire("b", "c", 100.0, 10.0)
        # delay(a->c) = R1*(C_b + C_c) + R2*C_c with C_b=10, C_c=5.
        assert tree.elmore_delay("a", "c") == pytest.approx(
            (100 * 15 + 100 * 5) / 1000
        )

    def test_sink_load_increases_delay(self):
        t1, t2 = RCTree(), RCTree()
        for t in (t1, t2):
            t.add_wire("a", "b", 100.0, 10.0)
        t2.add_node_cap("b", 20.0)
        assert t2.elmore_delay("a", "b") > t1.elmore_delay("a", "b")

    def test_branch_shares_upstream(self):
        tree = RCTree()
        tree.add_wire("a", "b", 100.0, 10.0)
        tree.add_wire("b", "c", 50.0, 4.0)
        tree.add_wire("b", "d", 50.0, 4.0)
        # Both sinks see the full downstream cap through the stem.
        d_c = tree.elmore_delay("a", "c")
        d_d = tree.elmore_delay("a", "d")
        assert d_c == pytest.approx(d_d)
        assert d_c > tree.elmore_delay("a", "b")

    def test_unreachable_and_missing(self):
        tree = RCTree()
        tree.add_wire("a", "b", 1.0, 1.0)
        tree.add_node_cap("z", 1.0)
        with pytest.raises(ValueError):
            tree.elmore_delay("a", "z")
        with pytest.raises(KeyError):
            tree.elmore_delay("a", "missing")

    def test_loop_tolerated(self):
        tree = RCTree()
        tree.add_wire("a", "b", 1.0, 1.0)
        tree.add_wire("b", "c", 1.0, 1.0)
        tree.add_wire("c", "a", 1.0, 1.0)  # loop: spanning tree used
        assert tree.elmore_delay("a", "c") > 0

    def test_validation(self):
        tree = RCTree()
        with pytest.raises(ValueError):
            tree.add_wire("a", "a", 1.0, 1.0)
        with pytest.raises(ValueError):
            tree.add_wire("a", "b", -1.0, 1.0)
        with pytest.raises(ValueError):
            tree.add_node_cap("a", -1.0)

    def test_total_cap(self):
        tree = RCTree()
        tree.add_wire("a", "b", 1.0, 10.0)
        tree.add_node_cap("b", 5.0)
        assert tree.total_cap() == pytest.approx(15.0)


class TestLevelBDelays:
    def route_straight_net(self, length=400):
        d = Design("timing")
        c1 = d.add_cell("c1", 8, 8)
        c1.place(0, 0)
        c2 = d.add_cell("c2", 8, 8)
        c2.place(length, 0)
        net = d.add_net("n")
        net.add_pin(d.add_pin("c1", "p", Edge.TOP, 0))
        net.add_pin(d.add_pin("c2", "p", Edge.TOP, 0))
        router = LevelBRouter(
            Rect(-16, -16, length + 24, 80), list(d.nets.values())
        )
        result = router.route()
        return result.routed[0]

    def test_delay_positive_and_scales_with_length(self):
        tech = Technology.four_layer()
        short = levelb_net_delays(self.route_straight_net(200), tech)
        long = levelb_net_delays(self.route_straight_net(800), tech)
        assert len(short) == len(long) == 1
        assert 0 < next(iter(short.values())) < next(iter(long.values()))

    def test_wide_upper_layers_beat_channel_estimate_for_long_nets(self):
        """The paper's motivation: long nets are faster over-cell."""
        tech = Technology.four_layer()
        routed = self.route_straight_net(1600)
        levelb = next(iter(levelb_net_delays(routed, tech).values()))
        channel = channel_net_delay_estimate(routed.net, tech)
        assert levelb < channel

    def test_rctree_contains_all_pins(self):
        tech = Technology.four_layer()
        routed = self.route_straight_net(400)
        tree = build_levelb_rctree(routed, tech)
        for pin in routed.net.pins:
            assert tree.contains(pin.position)

    def test_incomplete_net_returns_partial(self):
        tech = Technology.four_layer()
        routed = self.route_straight_net(400)
        routed.connections.clear()
        assert levelb_net_delays(routed, tech) == {}


class TestFlowIntegration:
    def test_delays_computable_for_all_levelb_nets(self):
        design = random_design("timing-flow", seed=13, num_cells=8,
                               num_nets=20, num_critical=2)
        result = overcell_flow(design)
        tech = Technology.four_layer()
        computed = 0
        for routed in result.levelb.routed:
            delays = levelb_net_delays(routed, tech)
            assert all(d > 0 for d in delays.values())
            computed += len(delays)
        assert computed > 0


class TestPlaneParasitics:
    def test_plane_one_net_gets_metal5_metal6(self):
        """A net routed on plane 1 is priced with that plane's layers."""
        result = overcell_flow(SUITES["ami33"](), FlowParams(planes=2))
        routed = next(
            r for r in result.levelb.routed
            if r.plane == 1 and r.corner_count and r.wire_length
        )
        tech = result.levelb.technology
        m5, m6 = tech.layer(5), tech.layer(6)
        assert (m5.cap_per_lambda, m6.cap_per_lambda) != (
            tech.layer(3).cap_per_lambda, tech.layer(4).cap_per_lambda
        )
        driver = DriverModel()
        wire_cap = sum(
            (m6 if seg.is_horizontal else m5).cap_per_lambda * seg.length
            for conn in routed.connections
            for seg in conn.path
            if not seg.is_point
        )
        sinks = driver.sink_cap * (len(routed.net.pins) - 1)
        tree = build_levelb_rctree(routed, tech, driver)
        assert tree.total_cap() == pytest.approx(wire_cap + sinks)
        # The same geometry on plane 0 is priced with metal3/metal4.
        low = build_levelb_rctree(dataclasses.replace(routed, plane=0), tech, driver)
        assert low.total_cap() != pytest.approx(tree.total_cap())


class TestDriverModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriverModel(resistance=-1)

    def test_stronger_driver_faster(self):
        tech = Technology.four_layer()
        d = Design("drv")
        c = d.add_cell("c", 16, 8)
        c.place(0, 0)
        net = d.add_net("n")
        net.add_pin(d.add_pin("c", "a", Edge.TOP, 0))
        net.add_pin(d.add_pin("c", "b", Edge.TOP, 16))
        weak = channel_net_delay_estimate(net, tech, DriverModel(resistance=1000))
        strong = channel_net_delay_estimate(net, tech, DriverModel(resistance=50))
        assert strong < weak


class TestMultiTerminalTrees:
    def test_branching_net_delays(self):
        """A 3-pin net's RC tree must serve both sinks through the
        shared trunk, with the farther sink slower."""
        from repro.geometry import Rect
        from repro.core import LevelBRouter
        from repro.netlist import Design, Edge

        d = Design("branch")
        # Source at left; two sinks right, one near, one far.
        for name, x, y in (("s", 0, 0), ("n1", 240, 0), ("n2", 720, 0)):
            cell = d.add_cell(name, 16, 16)
            cell.place(x, y)
        net = d.add_net("t")
        for cname in ("s", "n1", "n2"):
            net.add_pin(d.add_pin(cname, "p", Edge.TOP, 8))
        router = LevelBRouter(Rect(-16, -16, 760, 120), [net])
        result = router.route()
        assert result.routed[0].complete
        tech = Technology.four_layer()
        delays = levelb_net_delays(result.routed[0], tech)
        assert len(delays) == 2
        near = delays["n1.p"]
        far = delays["n2.p"]
        assert 0 < near < far

    def test_via_resistance_adds_delay(self):
        from repro.geometry import Rect
        from repro.core import LevelBRouter
        from repro.netlist import Design, Edge

        d = Design("vias")
        for name, x, y in (("a", 0, 0), ("b", 400, 240)):
            cell = d.add_cell(name, 16, 16)
            cell.place(x, y)
        net = d.add_net("t")
        net.add_pin(d.add_pin("a", "p", Edge.TOP, 8))
        net.add_pin(d.add_pin("b", "p", Edge.TOP, 8))
        router = LevelBRouter(Rect(-16, -16, 460, 320), [net])
        result = router.route()
        routed = result.routed[0]
        assert routed.corner_count >= 1  # the L needs a via
        tech = Technology.four_layer()
        cheap = levelb_net_delays(routed, tech, DriverModel(via_resistance=0.0))
        dear = levelb_net_delays(routed, tech, DriverModel(via_resistance=50.0))
        assert next(iter(dear.values())) > next(iter(cheap.values()))
