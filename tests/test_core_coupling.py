"""Tests for the parallel-run cost term and coupling analysis."""

import pytest

from repro.geometry import Point, Rect
from repro.grid import RoutingGrid, TrackSet
from repro.core import LevelBRouter, router as router_module
from repro.core.coupling import ParallelRunPenalty, parallel_exposure
from repro.netlist import Design, Edge


def make_grid(n=12):
    ts = TrackSet(range(0, n * 10, 10))
    return RoutingGrid(ts, TrackSet(range(0, n * 10, 10)))


class TestParallelRunPenalty:
    @pytest.mark.parametrize(
        "weight", [-1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_validation(self, weight):
        # A NaN or infinite weight makes every candidate's cost NaN or
        # infinite, and selection would silently pick none.
        with pytest.raises(ValueError, match="finite"):
            ParallelRunPenalty([1], weight=weight)
        with pytest.raises(ValueError):
            ParallelRunPenalty([1], separation=0)

    def test_no_wiring_no_cost(self):
        grid = make_grid()
        term = ParallelRunPenalty([9])
        pts = [Point(0, 50), Point(110, 50)]
        assert term.cost(grid, pts, []) == 0.0

    def test_adjacent_parallel_run_charged(self):
        grid = make_grid()
        # Sensitive net 9 runs horizontally on track y=60 (h_idx 6).
        grid.occupy_h(6, 0, 11, net_id=9)
        term = ParallelRunPenalty([9], weight=1.0, separation=1)
        beside = [Point(0, 50), Point(110, 50)]  # the track just below
        far = [Point(0, 10), Point(110, 10)]
        assert term.cost(grid, beside, []) == 12.0  # all 12 columns adjacent
        assert term.cost(grid, far, []) == 0.0

    def test_crossing_not_charged(self):
        grid = make_grid()
        grid.occupy_h(6, 0, 11, net_id=9)
        term = ParallelRunPenalty([9], weight=1.0)
        crossing = [Point(50, 0), Point(50, 110)]  # vertical across it
        assert term.cost(grid, crossing, []) == 0.0

    def test_separation_widens_window(self):
        grid = make_grid()
        grid.occupy_h(6, 0, 11, net_id=9)
        two_below = [Point(0, 40), Point(110, 40)]
        assert ParallelRunPenalty([9], 1.0, separation=1).cost(
            grid, two_below, []
        ) == 0.0
        assert ParallelRunPenalty([9], 1.0, separation=2).cost(
            grid, two_below, []
        ) == 12.0

    def test_exclude_self(self):
        grid = make_grid()
        grid.occupy_h(6, 0, 11, net_id=9)
        term = ParallelRunPenalty(None, weight=1.0, exclude=9)
        beside = [Point(0, 50), Point(110, 50)]
        assert term.cost(grid, beside, []) == 0.0

    def test_avoid_all_mode(self):
        grid = make_grid()
        grid.occupy_h(6, 0, 11, net_id=3)  # any foreign net
        term = ParallelRunPenalty(None, weight=1.0, exclude=7)
        beside = [Point(0, 50), Point(110, 50)]
        assert term.cost(grid, beside, []) == 12.0

    def test_empty_targets_free(self):
        grid = make_grid()
        grid.occupy_h(6, 0, 11, net_id=3)
        term = ParallelRunPenalty([], weight=1.0)
        assert term.cost(grid, [Point(0, 50), Point(110, 50)], []) == 0.0


class TestParallelExposure:
    def test_symmetric_count(self):
        grid = make_grid()
        grid.occupy_h(5, 0, 11, net_id=1)
        grid.occupy_h(6, 0, 11, net_id=2)
        assert parallel_exposure(grid, 1, [2]) == 12
        assert parallel_exposure(grid, 2, [1]) == 12

    def test_distance_beyond_separation_ignored(self):
        grid = make_grid()
        grid.occupy_h(3, 0, 11, net_id=1)
        grid.occupy_h(6, 0, 11, net_id=2)
        assert parallel_exposure(grid, 1, [2], separation=1) == 0
        assert parallel_exposure(grid, 1, [2], separation=3) == 12

    def test_self_excluded(self):
        grid = make_grid()
        grid.occupy_h(5, 0, 11, net_id=1)
        grid.occupy_h(6, 0, 11, net_id=1)
        assert parallel_exposure(grid, 1, [1]) == 0

    def test_vertical_direction_counted(self):
        grid = make_grid()
        grid.occupy_v(5, 0, 11, net_id=1)
        grid.occupy_v(6, 0, 11, net_id=2)
        assert parallel_exposure(grid, 1, [2]) == 12


class TestRouterIntegration:
    def sensitive_design(self):
        """A sensitive straight net plus a same-direction neighbour.

        Net "victim" runs horizontally across the middle; net "noisy"
        connects two points one track away whose cheapest equal-length
        routes include one hugging the victim.
        """
        d = Design("coupled")
        def pin_at(name, x, y):
            cell = d.add_cell(name, 8, 8)
            cell.place(x, y - 8)
            return d.add_pin(name, "p", Edge.TOP, 0)

        victim = d.add_net("victim", is_critical=False)
        victim.is_sensitive = True
        victim.add_pin(pin_at("v1", 0, 60))
        victim.add_pin(pin_at("v2", 200, 60))
        noisy = d.add_net("noisy")
        noisy.add_pin(pin_at("n1", 20, 48))
        noisy.add_pin(pin_at("n2", 180, 100))
        return d

    def route(self, monkeypatch, weight):
        monkeypatch.setattr(router_module, "PARALLEL_RUN_WEIGHT", weight)
        design = self.sensitive_design()
        router = LevelBRouter(Rect(-20, 0, 240, 140), list(design.nets.values()))
        result = router.route()
        grid = result.tig.grid
        victim_id = router.net_id(design.nets["victim"])
        noisy_id = router.net_id(design.nets["noisy"])
        return result, parallel_exposure(grid, noisy_id, [victim_id], separation=1)

    def test_term_reduces_exposure(self, monkeypatch):
        _, exposure_on = self.route(monkeypatch, 50.0)
        _, exposure_off = self.route(monkeypatch, 0.0)
        assert exposure_on <= exposure_off

    def test_routing_still_completes(self, monkeypatch):
        result, _ = self.route(monkeypatch, 50.0)
        assert result.completion_rate == 1.0
