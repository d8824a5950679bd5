"""Tests for congestion maps and routing reports."""

import pytest

from repro.analysis import CongestionMap, congestion_map, routing_report
from repro.bench_suite import random_design
from repro.flow import FlowParams, overcell_flow, two_layer_flow
from repro.grid import RoutingGrid, TrackSet


def make_grid(n=20):
    ts = TrackSet(range(0, n * 10, 10))
    return RoutingGrid(ts, TrackSet(range(0, n * 10, 10)))


class TestCongestionMap:
    def test_empty_grid_all_zero(self):
        cmap = congestion_map(make_grid(), bins_x=4, bins_y=4)
        assert cmap.shape == (4, 4)
        assert cmap.peak == 0.0
        assert cmap.mean == 0.0
        assert cmap.hotspots() == []

    def test_wire_raises_local_bin(self):
        grid = make_grid()
        grid.occupy_h(2, 0, 9, net_id=1)  # bottom-left region
        cmap = congestion_map(grid, bins_x=2, bins_y=2)
        assert cmap.values[0][0] > 0.0  # bottom-left bin
        assert cmap.values[1][1] == 0.0  # top-right untouched

    def test_obstacles_count(self):
        from repro.geometry import Rect

        grid = make_grid()
        grid.add_obstacle(Rect(0, 0, 90, 90))
        cmap = congestion_map(grid, bins_x=2, bins_y=2)
        assert cmap.values[0][0] > 0.5

    def test_full_grid_peak_one(self):
        grid = make_grid(4)
        for h in range(4):
            grid.occupy_h(h, 0, 3, net_id=1)
        for v in range(4):
            grid.occupy_v(v, 0, 3, net_id=1)
        cmap = congestion_map(grid, bins_x=1, bins_y=1)
        assert cmap.peak == 1.0
        assert cmap.hotspots(0.9) == [(0, 0)]

    def test_ascii_shape(self):
        cmap = congestion_map(make_grid(), bins_x=6, bins_y=3)
        art = cmap.to_ascii()
        lines = art.splitlines()
        assert len(lines) == 3
        assert all(len(line) == 6 for line in lines)
        assert set("".join(lines)) == {"."}

    def test_bins_validated(self):
        with pytest.raises(ValueError):
            congestion_map(make_grid(), bins_x=0)

    def test_more_bins_than_tracks(self):
        cmap = congestion_map(make_grid(4), bins_x=10, bins_y=10)
        assert cmap.shape == (10, 10)


class TestRoutingReport:
    @pytest.fixture(scope="class")
    def overcell_result(self):
        design = random_design("rep1", seed=15, num_cells=8, num_nets=20,
                               num_critical=2)
        return overcell_flow(design)

    def test_report_sections(self, overcell_result):
        report = routing_report(overcell_result)
        assert "Routing report" in report
        assert "Level B (over-cell" in report
        assert "congestion:" in report
        assert "slowest level B pins" in report
        assert "ps" in report

    def test_report_without_levelb(self):
        design = random_design("rep2", seed=16, num_cells=8, num_nets=20)
        result = two_layer_flow(design)
        report = routing_report(result)
        assert "Level B" not in report
        assert "channels:" in report

    def test_top_n_respected(self, overcell_result):
        short = routing_report(overcell_result, top_n=2)
        pin_lines = [l for l in short.splitlines() if "->" in l]
        assert len(pin_lines) <= 2

    def test_report_times_upper_plane_nets(self):
        """A two-plane report times plane-1 nets on the run's own stack
        and maps every plane's congestion, not only plane 0's."""
        design = random_design("rep1", seed=15, num_cells=8, num_nets=20,
                               num_critical=2)
        result = overcell_flow(design, FlowParams(planes=2))
        assert any(r.plane == 1 for r in result.levelb.routed)
        report = routing_report(result)
        assert "metal5/metal6" in report
        assert "slowest level B pins" in report
        congestion = [l for l in report.splitlines() if l.startswith("congestion")]
        expected = []
        for p, label in enumerate(["metal3/metal4", "metal5/metal6"]):
            cmap = congestion_map(result.levelb.tig.planes[p])
            expected.append(
                f"congestion {label}: mean {cmap.mean:.1%}, peak {cmap.peak:.1%}"
            )
        assert congestion == expected


class TestWirelengthStats:
    def test_stats_on_routed_design(self):
        from repro.analysis import wirelength_stats

        design = random_design("wl1", seed=18, num_cells=8, num_nets=18,
                               num_critical=2)
        result = overcell_flow(design)
        stats = wirelength_stats(result.levelb)
        assert stats.nets > 0
        assert stats.total_routed >= stats.total_hpwl
        assert stats.mean_ratio >= 1.0
        assert stats.max_ratio >= stats.mean_ratio
        assert stats.worst_net is not None
        # Paths should stay near the HPWL lower bound on a light design.
        assert stats.overall_ratio < 1.6

    def test_empty_result(self):
        from repro.analysis import wirelength_stats
        from repro.core.router import LevelBResult
        from repro.core.tig import TrackIntersectionGraph
        from repro.grid import TrackSet

        tig = TrackIntersectionGraph(TrackSet([0, 8]), TrackSet([0, 8]))
        empty = LevelBResult(tig=tig, routed=[], elapsed_s=0.0, nodes_created=0)
        stats = wirelength_stats(empty)
        assert stats.nets == 0
        assert stats.overall_ratio == 1.0

    def test_report_includes_quality_line(self):
        from repro.analysis import routing_report

        design = random_design("wl2", seed=19, num_cells=8, num_nets=16,
                               num_critical=2)
        result = overcell_flow(design)
        assert "wire quality:" in routing_report(result)
