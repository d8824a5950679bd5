"""Tests for the end-to-end flows on small designs."""

import pytest

from repro.bench_suite import SUITES, random_design
from repro.flow import (
    FlowParams,
    multilayer_channel_flow,
    overcell_flow,
    percent_reduction,
    two_layer_flow,
)
from repro.partition import PartitionStrategy


@pytest.fixture(scope="module")
def small_design():
    return random_design("flowtest", seed=11, num_cells=8, num_nets=24, num_critical=3)


@pytest.fixture(scope="module")
def baseline(small_design):
    return two_layer_flow(small_design)


@pytest.fixture(scope="module")
def overcell(small_design):
    return overcell_flow(small_design)


class TestTwoLayerFlow:
    def test_completes(self, baseline):
        assert baseline.completion == 1.0
        assert baseline.layout_area > 0
        assert baseline.wire_length > 0
        assert baseline.via_count > 0

    def test_channel_routes_validated(self, baseline):
        # Pipeline already calls check(); re-verify here explicitly.
        for spec, route in zip(
            baseline.global_route.specs, baseline.channel_routes
        ):
            route.check(spec.problem)

    def test_geometry_consistent(self, baseline, small_design):
        assert small_design.is_placed
        for cell in small_design.cells.values():
            assert baseline.bounds.contains_rect(cell.bounds)

    def test_channel_tracks_recorded(self, baseline):
        assert len(baseline.channel_tracks) == baseline.placement.channel_count
        assert any(t > 0 for t in baseline.channel_tracks)


class TestOvercellFlow:
    def test_completes(self, overcell):
        assert overcell.completion == 1.0
        assert overcell.levelb is not None

    def test_partition_notes(self, overcell, small_design):
        crit = sum(1 for n in small_design.nets.values() if n.is_critical)
        assert overcell.notes["level_a_nets"] == crit
        assert overcell.notes["level_b_nets"] == len(small_design.nets) - crit

    def test_levelb_pins_inside_bounds(self, overcell):
        grid = overcell.levelb.tig.grid
        assert grid.vtracks.span.hi <= overcell.bounds.x2
        assert grid.htracks.span.hi <= overcell.bounds.y2

    def test_paper_claims_hold(self, baseline, overcell):
        """Table 2's shape: the over-cell flow reduces all three metrics."""
        assert overcell.layout_area < baseline.layout_area
        assert overcell.wire_length < baseline.wire_length
        assert overcell.via_count < baseline.via_count

    def test_channels_shrink(self, baseline, overcell):
        assert sum(overcell.channel_heights) < sum(baseline.channel_heights)

    def test_all_b_partition(self, small_design):
        params = FlowParams(partition=PartitionStrategy.ALL_B)
        result = overcell_flow(small_design, params)
        assert result.notes["level_a_nets"] == 0
        assert result.completion == 1.0
        # Without channel nets every channel keeps minimum clearance.
        assert all(h == 8 for h in result.channel_heights)

    def test_long_to_b_partition(self, small_design):
        params = FlowParams(
            partition=PartitionStrategy.LONG_TO_B, length_threshold=100
        )
        result = overcell_flow(small_design, params)
        assert result.completion == 1.0
        assert result.notes["level_a_nets"] > 0


class TestMultilayerChannelFlow:
    def test_optimistic_model(self, small_design, baseline):
        ml = multilayer_channel_flow(small_design)
        assert ml.layout_area < baseline.layout_area
        assert "optimistic" in ml.flow

    def test_optimistic_halves_channel_heights(self, small_design, baseline):
        ml = multilayer_channel_flow(small_design)
        for half, full in zip(ml.channel_heights, baseline.channel_heights):
            assert half <= (full + 1) // 2 + 1

    def test_design_rule_aware_larger_than_optimistic(self, small_design):
        opt = multilayer_channel_flow(small_design)
        dra = multilayer_channel_flow(small_design, model="design-rule")
        # The paper's argument: with real design rules the saving shrinks.
        assert dra.layout_area >= opt.layout_area

    def test_table3_shape(self, small_design):
        """Over-cell beats even the optimistic 4-layer channel model."""
        ml = multilayer_channel_flow(small_design)
        oc = overcell_flow(small_design)
        assert oc.layout_area < ml.layout_area


class TestHelpers:
    def test_percent_reduction(self):
        assert percent_reduction(200, 100) == 50.0
        assert percent_reduction(0, 100) == 0.0
        assert percent_reduction(100, 120) == pytest.approx(-20.0)

    def test_summary_strings(self, baseline, overcell):
        assert "area=" in baseline.summary()
        assert overcell.design in overcell.summary()

    def test_flows_deterministic(self, small_design):
        a = overcell_flow(small_design)
        b = overcell_flow(small_design)
        assert a.layout_area == b.layout_area
        assert a.wire_length == b.wire_length
        assert a.via_count == b.via_count


class TestLevelBConstruction:
    """The flow builds level B from FlowParams."""

    @pytest.mark.parametrize("planes", [0, -1])
    def test_planes_below_one_rejected(self, planes):
        params = FlowParams(planes=planes)
        with pytest.raises(ValueError, match="planes must be >= 1"):
            overcell_flow(SUITES["ami33"](), params)

    def test_router_default_stack_is_the_flows(self):
        """A router given no technology grows the paper's stack by the
        same rule as every flow, so both price upper planes alike."""
        from repro.core import LevelBRouter
        from repro.flow.pipeline import levelb_router, realize_level_a

        params = FlowParams(planes=2)
        level_a = realize_level_a(SUITES["ami33"](), params)
        flow_router = levelb_router(level_a.bounds, level_a.set_b, params)
        router = LevelBRouter(level_a.bounds, level_a.set_b, planes=2)
        assert router.technology == flow_router.technology

    def test_short_stack_extended_at_one_plane(self):
        from repro.technology import Technology

        params = FlowParams(technology=Technology.two_layer())
        result = overcell_flow(SUITES["ami33"](), params)
        assert result.completion == 1.0
        assert result.levelb.technology.num_overcell_planes == 1

    def test_ordering_policy_orders_one_pass(self):
        """``ordering_policy`` reaches the router without ``iterate``:
        ``feature`` moves ami33 off the longest-first 106,396 / 940."""
        params = FlowParams(ordering_policy="feature")
        result = overcell_flow(SUITES["ami33"](), params)
        assert (result.wire_length, result.via_count) == (106_464, 936)
        assert result.completion == 1.0

    def test_unknown_ordering_policy_rejected(self):
        params = FlowParams(ordering_policy="nope")
        with pytest.raises(ValueError, match="unknown ordering policy 'nope'"):
            overcell_flow(SUITES["ami33"](), params)


class TestFlowTable:
    def test_every_flow_by_name(self):
        from repro.flow import FLOWS

        assert FLOWS == {
            "two-layer": two_layer_flow,
            "overcell": overcell_flow,
            "ml-channel": multilayer_channel_flow,
        }
