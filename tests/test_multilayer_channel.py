"""Tests for the HVH three-layer channel router."""

import pytest

from repro.channels import ChannelProblem, HVHChannelRouter, HorizontalSpan

from conftest import make_random_channel_problem


class TestPairing:
    def test_disjoint_nets_share_physical_row(self):
        # Two overlapping-span nets need 2 logical tracks but have jog
        # columns apart, so HVH pairs them onto one physical row.
        p = ChannelProblem(
            top=[1, 2, 0, 0],
            bottom=[0, 0, 1, 2],
        )
        result = HVHChannelRouter().route(p)
        assert result.paired
        assert result.base_tracks == 2
        assert result.tracks == 1
        layers = {s.layer for s in result.route.spans}
        assert layers == {0, 1}

    def test_conflicting_jogs_not_paired(self):
        # Nets with a shared pin column (VCG edge) cannot pair.
        p = ChannelProblem(
            top=[1, 1, 0],
            bottom=[0, 2, 2],
        )
        result = HVHChannelRouter().route(p)
        assert result.tracks == result.base_tracks == 2

    def test_cyclic_channel_falls_back(self):
        p = ChannelProblem(top=[1, 2], bottom=[2, 1])
        result = HVHChannelRouter().route(p)
        assert not result.paired
        assert result.tracks == result.base_tracks
        result.route.check(p)

    def test_track_saving_nonnegative(self):
        p = make_random_channel_problem(30, 8, seed=4)
        result = HVHChannelRouter().route(p)
        assert 0 <= result.base_tracks - result.route.tracks <= result.base_tracks


class TestValidity:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_channels_stay_legal(self, seed):
        p = make_random_channel_problem(30, 8, seed=seed)
        result = HVHChannelRouter().route(p)
        result.route.check(p)

    @pytest.mark.parametrize("seed", range(10))
    def test_paired_layers_disjoint_per_row(self, seed):
        """On one physical row and one layer, spans never overlap."""
        p = make_random_channel_problem(40, 12, seed=seed)
        result = HVHChannelRouter().route(p)
        by_slot = {}
        for span in result.route.spans:
            by_slot.setdefault((span.track, span.layer), []).append(span)
        for spans in by_slot.values():
            spans.sort(key=lambda s: s.c1)
            for a, b in zip(spans, spans[1:]):
                assert b.c1 > a.c2 or a.net == b.net

    def test_meaningful_savings_on_batch(self):
        """Across a batch, pairing should cut a significant share of
        tracks (the multi-layer literature claims up to 50%)."""
        base = hvh = 0
        for seed in range(30):
            p = make_random_channel_problem(30, 8, seed=seed)
            result = HVHChannelRouter().route(p)
            base += result.base_tracks
            hvh += result.tracks
        saving = (base - hvh) / base
        assert 0.15 <= saving <= 0.5


class TestLayeredSpanModel:
    def test_same_track_different_layers_allowed(self):
        route_spans = [
            HorizontalSpan(net=1, track=0, c1=0, c2=5, layer=0),
            HorizontalSpan(net=2, track=0, c1=0, c2=5, layer=1),
        ]
        from repro.channels import ChannelRoute, VerticalJog

        route = ChannelRoute(
            tracks=1,
            length=6,
            spans=route_spans,
            jogs=[
                VerticalJog(net=1, column=0, r1=-1, r2=0),
                VerticalJog(net=1, column=5, r1=-1, r2=0),
                VerticalJog(net=2, column=1, r1=0, r2=1),
                VerticalJog(net=2, column=4, r1=0, r2=1),
            ],
        )
        p = ChannelProblem(
            top=[1, 0, 0, 0, 0, 1],
            bottom=[0, 2, 0, 0, 2, 0],
        )
        route.check(p)  # must not flag the stacked trunks

    def test_negative_layer_rejected(self):
        with pytest.raises(ValueError):
            HorizontalSpan(net=1, track=0, c1=0, c2=1, layer=-1)
