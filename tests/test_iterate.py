"""Tests for ``repro.iterate`` — the negotiated-congestion loop.

Four layers of coverage (docs/ITERATION.md):

* the :class:`TrackHistory` path-cost term and its place among the
  section 3.2 evaluator's extension terms (one-pass costs must stay
  bit-identical);
* the ordering-policy table (``core/ordering.py``) the loop reads and
  the determinism contract every policy keeps;
* the convergence loop itself — converged-at-zero bit-identity with
  the seed digests, real recovery on a one-pass-failing design,
  honest stalling, and grid/state hygiene after every outcome;
* the knobs' ride through ``FlowParams`` and the serve wire protocol
  (digest classification per the ``digest.fields`` contract).
"""

from __future__ import annotations

import random

import pytest

from repro.core import LevelBRouter
from repro.core.cost import CornerCostEvaluator, CostWeights, TrackHistory
from repro.core.ordering import (
    NO_FEEDBACK,
    POLICIES,
    NetFeedback,
    congestion,
    feature,
    longest_first,
)
from repro.geometry import Point, Rect
from repro.grid import RoutingGrid, TrackSet
from repro.iterate import iterate_levelb
from repro.iterate.loop import _regions, _RegionContacts, history_weight

from conftest import make_toy_design


def make_grid(n=9):
    ts = TrackSet(range(0, n * 10, 10))
    return RoutingGrid(ts, TrackSet(range(0, n * 10, 10)))


def levelb_instance(
    seed: int,
    num_cells: int = 6,
    num_nets: int = 40,
    ordering_policy: str = "longest-first",
):
    """A level B router over the real over-cell pipeline's geometry."""
    from repro.bench_suite import random_design
    from repro.flow import FlowParams
    from repro.flow.pipeline import CORE_MARGIN, _run_channel_pipeline
    from repro.partition import partition_nets

    design = random_design(
        f"iter{seed}", seed=seed, num_cells=num_cells, num_nets=num_nets
    )
    params = FlowParams()
    nets = design.routable_nets()
    set_a, set_b = partition_nets(
        nets, params.partition, length_threshold=params.length_threshold
    )
    placement, _gr, _routes, heights, side_widths = _run_channel_pipeline(
        design, set_a, params
    )
    bounds = placement.realize(
        heights,
        left_width=side_widths[0],
        right_width=side_widths[1],
        margin=CORE_MARGIN,
    )
    return LevelBRouter(bounds, set_b, ordering_policy=ordering_policy)


# ----------------------------------------------------------------------
# TrackHistory
# ----------------------------------------------------------------------
class TestTrackHistory:
    def test_starts_uncharged(self):
        h = TrackHistory(4, 4)
        assert h.v == [0.0] * 4 and h.h == [0.0] * 4
        assert h.peak() == 0.0

    def test_charge_window_hits_crossing_tracks(self):
        h = TrackHistory(6, 6)
        h.charge_window(1, 3, 2, 2, 1.5)
        assert h.v == [0.0, 1.5, 1.5, 1.5, 0.0, 0.0]
        assert h.h == [0.0, 0.0, 1.5, 0.0, 0.0, 0.0]
        assert h.peak() == 1.5

    def test_charge_window_clamps_to_bounds(self):
        h = TrackHistory(3, 3)
        h.charge_window(-5, 99, -1, 99, 1.0)
        assert h.v == [1.0, 1.0, 1.0]
        assert h.h == [1.0, 1.0, 1.0]

    def test_negative_charge_rejected(self):
        h = TrackHistory(3, 3)
        with pytest.raises(ValueError):
            h.charge_window(0, 1, 0, 1, -0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackHistory(0, 4)
        with pytest.raises(ValueError):
            TrackHistory(4, 4, weight=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            TrackHistory(4, 4, weight=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_charge_rejected(self, value):
        h = TrackHistory(3, 3)
        with pytest.raises(ValueError, match="finite"):
            h.charge_window(0, 1, 0, 1, value)
        assert h.v == [0.0] * 3 and h.h == [0.0] * 3

    def test_segment_cost_charges_tracks_once_per_segment(self):
        grid = make_grid(9)
        h = TrackHistory(9, 9, weight=2.0)
        h.charge_window(3, 3, 5, 5, 1.0)  # v-track 3 and h-track 5
        # h-run on y=50 (h index 5), corner, v-run on x=30 (v index 3).
        points = [Point(0, 50), Point(30, 50), Point(30, 0)]
        assert h.cost(grid, points, []) == pytest.approx(2.0 * 2.0)
        # An uncharged path pays nothing.
        clean = [Point(0, 10), Point(20, 10)]
        assert h.cost(grid, clean, []) == 0.0

    def test_segment_cost_zero_weight_shortcut(self):
        grid = make_grid(9)
        h = TrackHistory(9, 9, weight=0.0)
        h.charge_window(0, 8, 0, 8, 5.0)
        assert h.cost(grid, [Point(0, 0), Point(40, 0)], []) == 0.0


class TestEvaluatorFold:
    def test_no_history_is_seed_identical(self):
        grid = make_grid()
        base = CornerCostEvaluator(grid, CostWeights())
        assert base.extra_terms == ()
        assert not base.has_path_terms
        points = [Point(0, 20), Point(40, 20)]
        assert base.extra_cost(points, []) == 0.0

    def test_history_surcharge_is_additive(self):
        grid = make_grid()
        h = TrackHistory(9, 9, weight=3.0)
        h.charge_window(0, 8, 2, 2, 1.0)  # h-track at y=20
        ev = CornerCostEvaluator(grid, CostWeights(), extra_terms=(h,))
        points = [Point(0, 20), Point(40, 20)]
        assert ev.extra_cost(points, []) == pytest.approx(3.0)
        # The corner term stays history-free.
        assert ev.corner_cost(4, 2) == CornerCostEvaluator(
            grid, CostWeights()
        ).corner_cost(4, 2)


# ----------------------------------------------------------------------
# History weight schedule
# ----------------------------------------------------------------------
class TestCostSchedule:
    def test_weight_grows_per_iteration(self):
        assert history_weight(1) == pytest.approx(6.0)
        assert history_weight(2) == pytest.approx(9.0)
        assert history_weight(3) == pytest.approx(12.0)


# ----------------------------------------------------------------------
# Policy table
# ----------------------------------------------------------------------
class TestPolicyRegistry:
    def test_builtins_registered(self):
        assert POLICIES == {
            "longest-first": longest_first,
            "congestion": congestion,
            "feature": feature,
        }

    def test_unknown_policy_lists_available(self):
        with pytest.raises(
            ValueError,
            match=r"unknown ordering policy 'nope' \(available: "
            r"\['congestion', 'feature', 'longest-first'\]\)",
        ):
            LevelBRouter(Rect(0, 0, 256, 256), [], ordering_policy="nope")


class TestPolicyDeterminism:
    def _nets(self):
        design = make_toy_design(nets=6)
        return list(design.nets.values())

    def _feedback(self, nets):
        # Synthetic feedback with deliberate ties: half the nets
        # failed, overflow/demand repeat across nets.
        fb = {}
        for i, n in enumerate(sorted(nets, key=lambda n: n.name)):
            fb[n.name] = NetFeedback(
                failed=i % 2 == 0,
                overflow=i % 3,
                demand=float(i % 2),
            )
        return fb

    def test_initial_order_matches_seed_ordering(self):
        """With no feedback every key but length ties, so two policies
        order like the seed's longest-first key (dense-quick's set B
        has nets of equal length)."""
        from repro.bench_suite import dense_design
        from repro.flow import FlowParams
        from repro.flow.pipeline import realize_level_a

        dense = realize_level_a(dense_design("quick"), FlowParams()).set_b
        for nets in (self._nets(), dense):
            expected = sorted(nets, key=lambda n: (-n.half_perimeter, n.name))
            for name, policy in POLICIES.items():
                got = policy(nets, {})
                assert sorted(n.name for n in got) == sorted(
                    n.name for n in nets
                ), name
                if name != "feature":
                    assert got == expected, name

    def test_reorder_is_shuffle_invariant_permutation(self):
        nets = self._nets()
        feedback = self._feedback(nets)
        rng = random.Random(99)
        for name, policy in POLICIES.items():
            baseline = [n.name for n in policy(nets, feedback)]
            assert sorted(baseline) == sorted(n.name for n in nets), name
            for _ in range(10):
                shuffled = list(nets)
                rng.shuffle(shuffled)
                got = [n.name for n in policy(shuffled, feedback)]
                assert got == baseline, name

    def test_failed_nets_route_first(self):
        nets = self._nets()
        feedback = self._feedback(nets)
        failed = {name for name, fb in feedback.items() if fb.failed}
        for name in ("longest-first", "congestion"):
            ordered = POLICIES[name](nets, feedback)
            head = {n.name for n in ordered[: len(failed)]}
            assert head == failed, name

    def test_no_feedback_default(self):
        assert not NO_FEEDBACK.failed
        assert NO_FEEDBACK.overflow == 0


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
class TestRegionContacts:
    """The coarse capacity model behind the negotiated-congestion loop
    (docs/ITERATION.md): each net's overflowed regions, their count and
    its peak region utilization.  Advisory only: it never touches
    occupancy state."""

    def test_tiling_covers_grid(self):
        regions = _regions(70, 40, (0, 69, 0, 39))
        rows = len({h_lo for _, _, h_lo, _ in regions})
        cols = len({v_lo for v_lo, _, _, _ in regions})
        assert (rows, cols) == (2, 3)  # ceil(40/32), ceil(70/32)
        # Edge regions are clipped to the grid, not padded past it.
        (corner,) = _regions(70, 40, (69, 69, 39, 39))
        v_lo, v_hi, h_lo, h_hi = corner
        assert v_hi == 69 and h_hi == 39

    def test_capacity_is_tracks_threading_tile(self):
        # A full 32x32 region is threaded by 32 h-tracks + 32 v-tracks:
        # 32 windows (demand 2 each) fill its capacity of 64 exactly.
        windows = {net_id: (0, 31, 0, 31) for net_id in range(32)}
        full = _RegionContacts.build(64, 64, windows)
        assert full.standing[0] == NetFeedback(overflow=0, demand=64 / 64)
        windows[32] = (0, 31, 0, 31)
        over = _RegionContacts.build(64, 64, windows)
        assert over.standing[0] == NetFeedback(overflow=1, demand=66 / 64)

    def test_demand_assignment_and_overflow(self):
        # One net inside each of two regions: each gets demand 2.
        windows = {1: (2, 6, 2, 6), 2: (34, 38, 2, 6)}
        contacts = _RegionContacts.build(64, 64, windows)
        assert [contacts.standing[n].demand * 64 for n in (1, 2)] == [2, 2]
        assert contacts.overflowed == {1: [], 2: []}
        assert 0.0 < contacts.standing[1].demand < 1.0

    def test_wide_window_charges_every_region_it_touches(self):
        # A net spanning all of a 2x1 region row charges both regions:
        # a net inside either one shares its region with it.
        windows = {7: (0, 63, 4, 8), 8: (2, 6, 2, 6), 9: (40, 45, 3, 6)}
        contacts = _RegionContacts.build(64, 32, windows)
        assert len(_regions(64, 32, windows[7])) == 2
        assert contacts.standing[8].demand == contacts.standing[9].demand == 4 / 64

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("ami33", (20, 9, 1.9375)),
            ("ex3", (49, 22, 3.3125)),
            ("dense-quick", (12, 9, 2.1875)),
            ("dense-full", (12, 9, 2.40625)),
        ],
        ids=["ami33", "ex3", "dense-quick", "dense-full"],
    )
    def test_region_profile_pinned(self, name, expected):
        """A design's (regions, overflowed regions, peak utilization)
        profile, pinned.  It is a pure function of the nets' terminal
        windows, so how those are gathered may change but these values
        may not.  ``congested`` iterates on the two dense designs."""
        from repro.bench_suite import SUITES, dense_design
        from repro.flow import FlowParams
        from repro.flow.pipeline import levelb_router, realize_level_a

        design = SUITES[name]() if name in SUITES else dense_design(name[6:])
        params = FlowParams()
        level_a = realize_level_a(design, params)
        router = levelb_router(level_a.bounds, level_a.set_b, params)
        nv, nh = router.tig.grid.num_vtracks, router.tig.grid.num_htracks
        contacts = _RegionContacts.build(nv, nh, router.tig.terminal_windows())
        assert (
            len(_regions(nv, nh, (0, nv - 1, 0, nh - 1))),
            len({r for hit in contacts.overflowed.values() for r in hit}),
            max(f.demand for f in contacts.standing.values()),
        ) == expected


class TestIterateLoop:
    def test_converged_at_zero_is_one_pass_identical(self):
        """A design that completes one-pass takes the identical path."""
        design = make_toy_design()
        plain = LevelBRouter(Rect(0, 0, 256, 256), list(design.nets.values()))
        reference = plain.route()
        assert reference.completion_rate == 1.0

        router = LevelBRouter(Rect(0, 0, 256, 256), list(design.nets.values()))
        result, report = iterate_levelb(router)
        assert report.iterations == 0
        assert report.converged and not report.stalled
        assert len(report.records) == 1 and report.records[0].committed
        assert result.total_wire_length == reference.total_wire_length
        assert result.total_corners == reference.total_corners
        got = {
            r.net.name: [tuple(c.path.waypoints()) for c in r.connections]
            for r in result.routed
        }
        want = {
            r.net.name: [tuple(c.path.waypoints()) for c in r.connections]
            for r in reference.routed
        }
        assert got == want
        assert router.history is None

    def test_recovers_a_one_pass_failure(self):
        """The acceptance property, in miniature: a design the one-pass
        router cannot finish completes under iteration."""
        one_pass = levelb_instance(9).route()
        assert one_pass.completion_rate < 1.0

        router = levelb_instance(9, ordering_policy="congestion")
        result, report = iterate_levelb(router, max_iterations=4)
        assert report.converged
        assert result.completion_rate == 1.0
        assert report.iterations >= 1
        assert report.records[0].completion == one_pass.completion_rate
        assert report.final.completion == 1.0
        assert router.history is None
        # The committed wiring on the grid is the returned best: a rip
        # of every routed net must free exactly what the grid holds.
        grid_router = router
        txn = grid_router.tig.planes.begin()
        for routed in result.routed:
            grid_router.unroute(routed.net)
        txn.rollback()

    def test_checked_mode_under_iterate(self):
        """Every pass after the first routes inside an ambient plane-set
        transaction; checked mode's per-commit audit must accept that
        and change nothing routed."""
        base = levelb_instance(9, ordering_policy="congestion")
        want, _ = iterate_levelb(base, max_iterations=4)
        router = LevelBRouter(
            base.bounds, base.nets, ordering_policy="congestion", checked=True
        )
        got, report = iterate_levelb(router, max_iterations=4)
        assert report.converged and report.iterations >= 1
        assert got.completion_rate == 1.0
        assert got.total_wire_length == want.total_wire_length
        assert got.total_corners == want.total_corners

    def test_stall_never_ends_worse_than_one_pass(self):
        one_pass = levelb_instance(5).route()
        assert one_pass.completion_rate < 1.0

        router = levelb_instance(5)
        result, report = iterate_levelb(router, max_iterations=6)
        assert not report.converged
        assert report.stalled
        assert result.completion_rate >= one_pass.completion_rate
        assert result.total_wire_length >= 0
        # Non-improving passes are recorded but not committed.
        assert any(not r.committed for r in report.records)
        assert report.final.committed

    def test_max_iterations_zero_is_single_pass(self):
        router = levelb_instance(9)
        result, report = iterate_levelb(router, max_iterations=0)
        assert report.iterations == 0
        assert len(report.records) == 1
        assert result.completion_rate < 1.0
        assert not report.converged

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_iterations must be >= 0"):
            iterate_levelb(levelb_instance(9), -1)

    def test_report_serialises(self):
        router = levelb_instance(9, ordering_policy="feature")
        _result, report = iterate_levelb(router, max_iterations=2)
        doc = report.to_dict()
        assert doc["policy"] == "feature"
        assert isinstance(doc["iterations"], int)
        assert isinstance(doc["converged"], bool)
        for rec in doc["records"]:
            assert set(rec) == {
                "iteration",
                "completion",
                "failed_nets",
                "wire_length",
                "corners",
                "nets_ripped",
                "history_peak",
                "committed",
            }

    def test_dense_full_feature_passes_are_pinned(self):
        """A published design's multi-pass run, rolled-back passes
        included: pins the history charges and the feedback of every
        pass, and the whole-pass journal rollbacks between them."""
        from repro.bench_suite import dense_design
        from repro.flow import FlowParams, overcell_flow

        result = overcell_flow(
            dense_design("full"),
            FlowParams(iterate=True, ordering_policy="feature"),
        )
        records = [
            (r["iteration"], r["completion"], r["wire_length"], r["committed"])
            for r in result.notes["iterate"]["records"]
        ]
        assert records == [
            (0, 0.97, 71864, True),
            (1, 0.96, 70440, False),
            (2, 0.98, 70640, True),
            (3, 0.97, 68696, False),
            (4, 1.0, 71000, True),
        ]

    def test_failed_net_outside_overflow_charges_its_own_window(self):
        """History charging, with both of its branches: a failed net
        whose window touches an overflowed region charges that region,
        and one whose window touches none charges its own window, on
        its own plane."""
        from types import SimpleNamespace

        from repro.core.router import RoutedNet
        from repro.iterate.loop import HISTORY_INCREMENT, _charge_history
        from repro.netlist import Net

        # 64 x 32 tracks are two regions side by side.  Nets 3..35 pile
        # onto region 0 (demand 66 > capacity 64); net 2's window lies
        # in region 1 alone.
        windows = {net_id: (0, 31, 0, 31) for net_id in range(3, 36)}
        windows[1] = (2, 5, 1, 4)
        windows[2] = (40, 45, 3, 6)
        contacts = _RegionContacts.build(64, 32, windows)
        region0 = (0, 31, 0, 31)
        assert contacts.overflowed == {
            net_id: [region0] if w[1] < 32 else [] for net_id, w in windows.items()
        }
        routed = [
            RoutedNet(Net("in_overflow"), 1, failed_terminals=1, plane=0),
            RoutedNet(Net("outside"), 2, failed_terminals=1, plane=1),
            RoutedNet(Net("complete"), 3, plane=1),
        ]
        history = (TrackHistory(64, 32), TrackHistory(64, 32))
        _charge_history(history, SimpleNamespace(routed=routed), contacts, iteration=1)

        step = HISTORY_INCREMENT
        # Plane 0: net 1 charged region 0's tracks, not its own window.
        assert history[0].v == [step] * 32 + [0.0] * 32
        assert history[0].h == [step] * 32
        # Plane 1: net 2 charged exactly its own window; complete net 3
        # charged nothing.
        assert history[1].v == [step if 40 <= v <= 45 else 0.0 for v in range(64)]
        assert history[1].h == [step if 3 <= h <= 6 else 0.0 for h in range(32)]
        assert history[0].weight == history[1].weight == history_weight(1)

    def test_iterate_counters_emitted(self):
        from repro import instrument
        from repro.instrument.names import (
            ITERATE_NETS_RIPPED,
            ITERATE_PASSES,
        )

        router = levelb_instance(9, ordering_policy="congestion")
        with instrument.collecting() as col:
            _result, report = iterate_levelb(router, max_iterations=4)
        assert col.counters[ITERATE_PASSES] == report.iterations
        assert col.counters[ITERATE_NETS_RIPPED] >= len(router.nets)


# ----------------------------------------------------------------------
# The knobs' ride through flow and serve
# ----------------------------------------------------------------------
class TestServeProtocol:
    def _spec(self, **extra):
        from repro.serve.protocol import JobSpec

        return JobSpec.from_dict({"design": "ami33", **extra})

    def test_spec_defaults_off(self):
        spec = self._spec()
        assert spec.iterate is False
        assert spec.max_iterations == 8
        assert spec.ordering_policy == "longest-first"

    def test_spec_validation(self):
        from repro.serve.protocol import SpecError

        with pytest.raises(SpecError, match="iterate"):
            self._spec(iterate="yes")
        with pytest.raises(SpecError, match="max_iterations"):
            self._spec(max_iterations=-1)
        with pytest.raises(SpecError, match="ordering policy"):
            self._spec(ordering_policy="nope")

    def test_iterate_knobs_key_the_cache(self):
        base = self._spec()
        assert self._spec(iterate=True).digest() != base.digest()
        assert self._spec(max_iterations=3).digest() != base.digest()
        assert (
            self._spec(ordering_policy="congestion").digest() != base.digest()
        )

    def test_build_params_threads_the_knobs(self):
        from repro.serve.protocol import build_params

        params = build_params(
            self._spec(iterate=True, max_iterations=3, ordering_policy="feature")
        )
        assert params.iterate is True
        assert params.max_iterations == 3
        assert params.ordering_policy == "feature"
