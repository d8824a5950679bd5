"""End-to-end integration tests across the whole stack."""

import os
import runpy
import sys

import pytest

from repro.bench_suite import ami33_like, random_design
from repro.flow import (
    FlowParams,
    multilayer_channel_flow,
    overcell_flow,
    two_layer_flow,
)


class TestMidSizeEndToEnd:
    """A 30-net design through every flow, with invariants checked."""

    @pytest.fixture(scope="class")
    def design(self):
        return random_design("integ", seed=77, num_cells=10, num_nets=30,
                             num_critical=4)

    def test_three_flows_consistent(self, design):
        base = two_layer_flow(design)
        oc = overcell_flow(design)
        ml = multilayer_channel_flow(design)
        # Monotone ordering the paper's story predicts:
        assert oc.layout_area < ml.layout_area < base.layout_area
        assert oc.completion == 1.0

    def test_levelb_occupancy_matches_paths(self, design):
        oc = overcell_flow(design)
        grid = oc.levelb.tig.grid
        claimed_ids = set(grid.owners())
        routed_ids = {r.net_id for r in oc.levelb.routed}
        assert claimed_ids <= routed_ids

    def test_cells_inside_layout_and_disjoint(self, design):
        oc = overcell_flow(design)
        assert design.validate() == []
        for cell in design.cells.values():
            assert oc.bounds.contains_rect(cell.bounds)

    def test_channel_heights_match_routes(self, design):
        base = two_layer_flow(design)
        pitch = FlowParams().channel_pitch
        for route, height in zip(base.channel_routes, base.channel_heights):
            if route.tracks or route.jogs:
                assert height == (route.tracks + 1) * pitch
            else:
                assert height == pitch


class TestSuiteSmoke:
    """One full suite end to end (the slowest single test in the repo)."""

    def test_ami33_full_run(self):
        design = ami33_like()
        oc = overcell_flow(design)
        assert oc.completion == 1.0
        assert oc.notes["level_a_nets"] == 4
        assert oc.levelb.total_wire_length > 0
        # Every level B net either completed all its connections or is
        # accounted as failed (none here).
        for routed in oc.levelb.routed:
            assert routed.complete
            assert len(routed.connections) >= routed.net.degree - 1 - \
                routed.failed_terminals


class TestExamplesRun:
    """Each example must execute cleanly (they are part of the API)."""

    def _run(self, name, tmp_path, monkeypatch, argv=None):
        path = os.path.join(
            os.path.dirname(__file__), "..", "examples", name
        )
        monkeypatch.chdir(tmp_path)  # examples write SVGs into cwd
        monkeypatch.setattr(sys, "argv", [name, *(argv or [])])
        runpy.run_path(os.path.abspath(path), run_name="__main__")

    def test_quickstart(self, tmp_path, monkeypatch, capsys):
        self._run("quickstart.py", tmp_path, monkeypatch)
        out = capsys.readouterr().out
        assert "Track Intersection Graph" in out
        assert "Path Selection Tree" in out
        # Figure 2's two minimum-corner candidates for net B.
        assert "  (v2, h4, terminal)  corners=1 length=60\n" in out
        assert "  (h2, v6, terminal)  corners=1 length=60\n" in out
        assert "completion: 100%" in out

    def test_channel_router_demo(self, tmp_path, monkeypatch, capsys):
        self._run("channel_router_demo.py", tmp_path, monkeypatch)
        out = capsys.readouterr().out
        assert "greedy:" in out
        assert "left-edge completed" in out

    def test_obstacle_example(self, tmp_path, monkeypatch, capsys):
        self._run("obstacle_aware_routing.py", tmp_path, monkeypatch)
        out = capsys.readouterr().out
        assert "must be 0" in out
        assert "0 (must be 0)" in out
        assert (tmp_path / "obstacles.svg").exists()

    def test_partition_example(self, tmp_path, monkeypatch, capsys):
        self._run("partition_and_weights.py", tmp_path, monkeypatch)
        out = capsys.readouterr().out
        assert "Partition strategy sweep" in out
        assert "Cost-weight sweep" in out

    def test_process_exploration_example(self, tmp_path, monkeypatch, capsys):
        self._run("process_exploration.py", tmp_path, monkeypatch)
        out = capsys.readouterr().out
        assert "process exploration" in out
        assert "baseline (paper-like)" in out
