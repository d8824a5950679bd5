"""Cross-checks of the flow metric accounting and rendering overlays."""

import pytest

from repro.bench_suite import random_design
from repro.flow import overcell_flow, two_layer_flow


@pytest.fixture(scope="module")
def baseline():
    design = random_design("acct", seed=27, num_cells=8, num_nets=22,
                           num_critical=2)
    return two_layer_flow(design)


class TestLevelAWireAccounting:
    def test_wire_is_channels_plus_side_model(self, baseline):
        """FlowResult.wire_length must equal the documented formula."""
        pitch = 8
        channel_wire = sum(
            route.wire_length(pitch, pitch) for route in baseline.channel_routes
        )
        row_heights = [r.height for r in baseline.placement.rows]
        side_wire = baseline.global_route.side_wire_length(
            row_heights, baseline.channel_heights
        )
        stub_wire = 0
        for use in baseline.global_route.side_uses.values():
            width = (
                baseline.side_widths[0]
                if use.side == "L"
                else baseline.side_widths[1]
            )
            stub_wire += len(use.exits) * (width // 2)
        assert baseline.wire_length == channel_wire + side_wire + stub_wire

    def test_vias_are_channel_vias(self, baseline):
        assert baseline.via_count == sum(
            r.via_count() for r in baseline.channel_routes
        )

    def test_bounds_width_decomposition(self, baseline):
        margin = 16  # FlowParams default
        expected = (
            2 * margin
            + baseline.side_widths[0]
            + baseline.side_widths[1]
            + baseline.placement.core_width
        )
        # realize() snaps up to the pitch.
        assert expected <= baseline.bounds.width < expected + 8

    def test_bounds_height_decomposition(self, baseline):
        margin = 16
        expected = (
            2 * margin
            + sum(baseline.channel_heights)
            + sum(r.height for r in baseline.placement.rows)
        )
        assert expected <= baseline.bounds.height < expected + 8


class TestOvercellWireAccounting:
    def test_wire_splits_into_levels(self):
        design = random_design("acct2", seed=28, num_cells=8, num_nets=22,
                               num_critical=3)
        result = overcell_flow(design)
        assert result.wire_length == (
            result.notes["level_a_wire"] + result.notes["level_b_wire"]
        )
        assert result.notes["level_b_wire"] == result.levelb.total_wire_length

    def test_vias_split_into_levels(self):
        design = random_design("acct3", seed=29, num_cells=8, num_nets=22,
                               num_critical=3)
        result = overcell_flow(design)
        channel_vias = sum(r.via_count() for r in result.channel_routes)
        assert result.via_count == channel_vias + result.levelb.total_vias


class TestSvgOverlay:
    def test_overlay_scales_with_channel_content(self, baseline):
        from repro.viz.svg import svg_flow_result

        with_overlay = svg_flow_result(baseline, show_level_a=True)
        without = svg_flow_result(baseline, show_level_a=False)
        extra_lines = with_overlay.count("<line") - without.count("<line")
        expected = sum(
            len(r.spans) + len(r.jogs) for r in baseline.channel_routes
        )
        # Empty channels are skipped, so extra <= expected, but the
        # overlay must draw the overwhelming majority of the wiring.
        assert 0 < extra_lines <= expected
        assert extra_lines >= expected * 0.9

    def test_overlay_grouped_and_grey(self, baseline):
        from repro.viz.svg import svg_flow_result

        doc = svg_flow_result(baseline)
        assert '<g stroke="#9a9a9a"' in doc
        assert doc.count("</g>") >= 1


class TestCandidateDistinctness:
    def test_candidates_have_distinct_sequences(self):
        from repro.core.search import MBFSearch, candidate_paths
        from repro.core.tig import TrackIntersectionGraph
        from repro.geometry import Point
        from repro.grid import TrackSet

        tig = TrackIntersectionGraph(
            TrackSet(range(0, 90, 10)), TrackSet(range(0, 90, 10))
        )
        terms = tig.register_net(1, [Point(0, 0), Point(80, 80)])
        res = MBFSearch(tig.grid, 1, *terms).run()
        cands = candidate_paths(res, tig.grid)
        assert len(cands) == len(res.leaves)
        sequences = [tuple(leaf.track_sequence()) for leaf in res.leaves]
        assert len(sequences) == len(set(sequences))
