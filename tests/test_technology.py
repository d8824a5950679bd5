"""Tests for repro.technology."""

import math

import pytest

from repro.technology import Layer, RoutingDirection, Technology, ViaRule


class TestLayer:
    def test_validation(self):
        with pytest.raises(ValueError):
            Layer(0, "m0", RoutingDirection.VERTICAL, pitch=8, width=4)
        with pytest.raises(ValueError):
            Layer(1, "m1", RoutingDirection.VERTICAL, pitch=0, width=4)
        with pytest.raises(ValueError):
            Layer(1, "m1", RoutingDirection.VERTICAL, pitch=4, width=4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_sheet_resistance_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="sheet_resistance must be finite"):
            Layer(1, "m1", RoutingDirection.VERTICAL, pitch=8, width=4,
                  sheet_resistance=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_cap_per_lambda_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="cap_per_lambda must be finite"):
            Layer(1, "m1", RoutingDirection.VERTICAL, pitch=8, width=4,
                  cap_per_lambda=value)

    def test_direction_helpers(self):
        layer = Layer(1, "m1", RoutingDirection.VERTICAL, pitch=8, width=4)
        assert layer.is_vertical and not layer.is_horizontal
        assert RoutingDirection.VERTICAL.orthogonal is RoutingDirection.HORIZONTAL


class TestViaRule:
    def test_adjacent_only(self):
        with pytest.raises(ValueError):
            ViaRule(1, 3, size=4)

    def test_positive_size(self):
        with pytest.raises(ValueError):
            ViaRule(1, 2, size=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_cost_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="via cost must be finite"):
            ViaRule(1, 2, size=4, cost=value)


class TestTechnology:
    def test_two_layer_preset(self):
        tech = Technology.two_layer()
        assert tech.num_layers == 2
        assert tech.layer(1).is_vertical
        assert tech.layer(2).is_horizontal

    def test_four_layer_preset_pitches_grow(self):
        tech = Technology.four_layer()
        assert tech.num_layers == 4
        # The paper's design-rule argument: upper layers are coarser.
        assert tech.layer(3).pitch > tech.layer(1).pitch
        assert tech.layer(4).pitch > tech.layer(2).pitch
        assert tech.via(3).size > tech.via(1).size

    def test_layer_lookup(self):
        tech = Technology.four_layer()
        with pytest.raises(KeyError):
            tech.layer(5)

    def test_via_lookup(self):
        tech = Technology.four_layer()
        assert tech.via(2).upper == 3
        with pytest.raises(KeyError):
            tech.via(4)

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            Technology(
                name="bad",
                layers=(
                    Layer(1, "m1", RoutingDirection.VERTICAL, 8, 4),
                    Layer(3, "m3", RoutingDirection.HORIZONTAL, 8, 4),
                ),
                vias=(ViaRule(1, 2, 4),),
            )
        with pytest.raises(ValueError):
            Technology(
                name="bad-vias",
                layers=(
                    Layer(1, "m1", RoutingDirection.VERTICAL, 8, 4),
                    Layer(2, "m2", RoutingDirection.HORIZONTAL, 8, 4),
                ),
                vias=(),
            )
