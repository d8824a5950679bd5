"""Tests for the section 3.2 cost model."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.grid import RoutingGrid, TrackSet
from repro.core.cost import CornerCostEvaluator, CostWeights


def make_grid(n=9):
    ts = TrackSet(range(0, n * 10, 10))
    return RoutingGrid(ts, TrackSet(range(0, n * 10, 10)))


class TestCostWeights:
    def test_defaults_are_paper_sparse(self):
        w = CostWeights()
        assert (w.w1, w.w21, w.w22, w.w23) == (1.0, 10.0, 10.0, 10.0)
        assert w == CostWeights.sparse()

    def test_dense_weights_corner_term_higher(self):
        assert CostWeights.dense().w21 > CostWeights.sparse().w21

    def test_length_only(self):
        w = CostWeights.length_only()
        assert w.w21 == w.w22 == w.w23 == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostWeights(w1=-1.0)

    @pytest.mark.parametrize("field", ["w1", "w21", "w22", "w23"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        # A NaN weight would make every partial sum NaN, so selection
        # would accept no candidate and every connection fall to the rescue.
        with pytest.raises(ValueError, match=field):
            CostWeights(**{field: value})


class TestCornerCost:
    def test_empty_grid_zero_corner_cost(self):
        ev = CornerCostEvaluator(make_grid(), CostWeights())
        assert ev.corner_cost(4, 4) == 0.0

    def test_drg_term_reacts_to_routed_wire(self):
        grid = make_grid()
        ev_before = CornerCostEvaluator(grid, CostWeights()).corner_cost(4, 4)
        grid.occupy_h(4, 2, 6, net_id=2)
        ev_after = CornerCostEvaluator(grid, CostWeights()).corner_cost(4, 3)
        assert ev_after > ev_before

    def test_dup_term_reacts_to_unrouted_terminals(self):
        grid = make_grid()
        grid.reserve_terminal(4, 4, net_id=3)
        cost_near = CornerCostEvaluator(grid, CostWeights()).corner_cost(5, 5)
        grid2 = make_grid()
        cost_far = CornerCostEvaluator(grid2, CostWeights()).corner_cost(5, 5)
        assert cost_near > cost_far

    def test_acf_term_reacts_to_obstacles(self):
        grid = make_grid()
        grid.add_obstacle(Rect(10, 10, 30, 30))
        weights = CostWeights(w21=0.0, w22=0.0, w23=10.0)
        ev = CornerCostEvaluator(grid, weights)
        assert ev.corner_cost(2, 2) > ev.corner_cost(8, 8)

    def test_cost_reads_the_grid_as_it_stands(self):
        grid = make_grid()
        ev = CornerCostEvaluator(grid, CostWeights())
        first = ev.corner_cost(3, 3)
        grid.occupy_h(3, 0, 8, net_id=2)  # no memo: the next read sees it
        assert ev.corner_cost(3, 3) > first
        assert ev.corner_cost(3, 3) == CornerCostEvaluator(
            grid, CostWeights()
        ).corner_cost(3, 3)

    def test_batch_prices_each_corner_as_alone(self):
        """Every corner, clipped windows and repeats included, costs the
        same bits in a batch as in a one-corner call."""
        grid = make_grid(6)
        grid.occupy_h(1, 0, 4, net_id=2)
        grid.occupy_v(4, 2, 5, net_id=3)
        grid.reserve_terminal(0, 5, net_id=4)
        grid.reserve_terminal(2, 2, net_id=4)
        grid.add_obstacle(Rect(0, 30, 20, 40))
        ev = CornerCostEvaluator(grid, CostWeights(w1=1.0, w21=7.0, w22=3.0, w23=11.0))
        corners = [(v, h) for v in range(6) for h in range(6)]
        batch = corners[::-1] + corners[::3]
        costs = ev.corner_costs(
            np.array([v for v, _ in batch]), np.array([h for _, h in batch])
        )
        assert costs.dtype == np.float64
        assert costs.tolist() == [ev.corner_cost(v, h) for v, h in batch]
        assert len(set(costs.tolist())) > 3  # the grid varies the costs

    def test_weights_scale_terms(self):
        grid = make_grid()
        grid.occupy_h(4, 2, 6, net_id=2)
        low = CornerCostEvaluator(grid, CostWeights()).corner_cost(4, 3)
        high = CornerCostEvaluator(grid, CostWeights.dense()).corner_cost(4, 3)
        assert high == pytest.approx(3 * low)
