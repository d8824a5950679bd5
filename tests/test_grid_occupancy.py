"""Tests for repro.grid.occupancy (the O(h*v) occupancy array)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Interval, Rect
from repro.grid import FREE, OBSTACLE, PlaneSet, RoutingGrid, TrackSet
from repro.grid.occupancy import narrowest_int

from conftest import run_through, span_usable


def make_grid(nv=10, nh=8) -> RoutingGrid:
    return RoutingGrid(
        TrackSet(range(0, nv * 10, 10)), TrackSet(range(0, nh * 10, 10))
    )


def window(g, v, h, radius):
    """One corner's ``window_counts``: (used, terminals, busy, cells)."""
    return tuple(int(a[0]) for a in g.window_counts(np.array([v]), np.array([h]), radius))


def terminals_near(g, v, h, radius):
    return window(g, v, h, radius)[1]


def routed_density(g, v, h, radius):
    used, _, _, cells = window(g, v, h, radius)
    return used / (2 * cells)


def congestion(g, v, h, radius):
    _, _, busy, cells = window(g, v, h, radius)
    return busy / (2 * cells)


class TestBasics:
    def test_shape(self):
        g = make_grid(10, 8)
        assert g.num_vtracks == 10
        assert g.num_htracks == 8
        assert g.num_intersections == 80

    def test_coord_of(self):
        g = make_grid()
        assert g.coord_of(3, 2) == (30, 20)

    def test_fresh_grid_fully_free(self):
        g = make_grid()
        assert g.utilization() == 0.0
        assert g.corner_free(4, 4, 1)
        assert g.owners() == []


class TestObstacles:
    def test_add_obstacle_blocks_both(self):
        g = make_grid()
        blocked = g.add_obstacle(Rect(20, 20, 40, 30))
        assert blocked == 6  # 3 v-tracks x 2 h-tracks
        assert not g.corner_free(2, 2, 1)
        assert g.h_slot(2, 2) == OBSTACLE
        assert g.v_slot(2, 2) == OBSTACLE

    def test_one_direction_obstacle(self):
        g = make_grid()
        g.add_obstacle(Rect(20, 20, 20, 20), block_h=True, block_v=False)
        assert g.h_slot(2, 2) == OBSTACLE
        assert g.v_slot(2, 2) == FREE
        assert not g.corner_free(2, 2, 1)

    def test_obstacle_outside_tracks_is_noop(self):
        g = make_grid()
        assert g.add_obstacle(Rect(5, 5, 7, 7)) == 0

    def test_obstacle_over_wire_rejected(self):
        g = make_grid()
        g.occupy_h(2, 0, 5, net_id=1)
        with pytest.raises(ValueError):
            g.add_obstacle(Rect(0, 20, 90, 20))

    def test_double_obstacle_counts_once(self):
        g = make_grid()
        g.add_obstacle(Rect(20, 20, 20, 20))
        assert g.add_obstacle(Rect(20, 20, 20, 20)) == 0


class TestTerminals:
    def test_reserve_blocks_other_nets(self):
        g = make_grid()
        g.reserve_terminal(3, 3, net_id=1)
        assert g.corner_free(3, 3, 1)
        assert not g.corner_free(3, 3, 2)

    def test_reserve_collision_rejected(self):
        g = make_grid()
        g.reserve_terminal(3, 3, net_id=1)
        with pytest.raises(ValueError):
            g.reserve_terminal(3, 3, net_id=2)

    def test_reserve_requires_positive_id(self):
        g = make_grid()
        with pytest.raises(ValueError):
            g.reserve_terminal(0, 0, net_id=0)

    def test_unrouted_terminal_counting(self):
        g = make_grid()
        g.reserve_terminal(3, 3, net_id=1)
        g.reserve_terminal(5, 5, net_id=1)
        assert terminals_near(g, 4, 4, radius=2) == 2
        g.mark_terminal_routed(3, 3)
        assert terminals_near(g, 4, 4, radius=2) == 1
        g.mark_terminal_routed(3, 3)  # extra mark is harmless
        assert terminals_near(g, 4, 4, radius=2) == 1


class TestSpans:
    def test_occupy_and_query_h(self):
        g = make_grid()
        g.occupy_h(2, 1, 4, net_id=7)
        assert g.h_slot(3, 2) == 7
        assert span_usable(g, False, 2, 1, 4, net_id=7)
        assert not span_usable(g, False, 2, 1, 4, net_id=8)
        # Crossing stays open: vertical slots untouched.
        assert g.v_slot(3, 2) == FREE
        assert span_usable(g, True, 3, 0, 7, net_id=8)

    def test_occupy_conflict_raises(self):
        g = make_grid()
        g.occupy_h(2, 1, 4, net_id=7)
        with pytest.raises(ValueError):
            g.occupy_h(2, 3, 6, net_id=8)
        g.occupy_h(2, 3, 6, net_id=7)  # same net may extend

    def test_occupy_v(self):
        g = make_grid()
        g.occupy_v(5, 0, 3, net_id=2)
        assert g.v_slot(5, 1) == 2
        with pytest.raises(ValueError):
            g.occupy_v(5, 2, 5, net_id=3)

    def test_occupy_corner(self):
        g = make_grid()
        g.occupy_corner(4, 4, net_id=3)
        assert g.h_slot(4, 4) == 3 and g.v_slot(4, 4) == 3
        with pytest.raises(ValueError):
            g.occupy_corner(4, 4, net_id=5)

    def test_swapped_bounds_accepted(self):
        g = make_grid()
        g.occupy_h(1, 5, 2, net_id=1)
        assert g.h_slot(3, 1) == 1


class TestFreeSpan:
    def test_full_row_free(self):
        g = make_grid(10, 8)
        assert run_through(g, False, 3, 5, net_id=1) == Interval(0, 9)

    def test_blocked_entry_returns_none(self):
        g = make_grid()
        g.occupy_h(3, 5, 5, net_id=2)
        assert run_through(g, False, 3, 5, net_id=1) is None
        assert run_through(g, False, 3, 5, net_id=2) == Interval(0, 9)

    def test_span_stops_at_foreign_wire(self):
        g = make_grid()
        g.occupy_h(3, 2, 2, net_id=2)
        g.occupy_h(3, 8, 8, net_id=2)
        assert run_through(g, False, 3, 5, net_id=1) == Interval(3, 7)

    def test_window_clipping(self):
        g = make_grid()
        assert run_through(g, False, 3, 5, net_id=1, within=Interval(4, 6)) == Interval(4, 6)
        assert run_through(g, False, 3, 5, net_id=1, within=Interval(6, 8)) is None

    def test_vertical_span(self):
        g = make_grid()
        g.occupy_v(4, 6, 7, net_id=9)
        assert run_through(g, True, 4, 2, net_id=1) == Interval(0, 5)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 3)), max_size=6
        ),
        st.integers(0, 9),
    )
    def test_span_matches_naive(self, blocks, probe):
        g = make_grid(10, 4)
        occupied = set()
        for start, width in blocks:
            end = min(9, start + width - 1)
            if span_usable(g, False, 2, start, end, net_id=2):
                g.occupy_h(2, start, end, net_id=2)
                occupied.update(range(start, end + 1))
        span = run_through(g, False, 2, probe, net_id=1)
        if probe in occupied:
            assert span is None
        else:
            assert span is not None and span.contains(probe)
            assert all(i not in occupied for i in span)
            if span.lo > 0:
                assert span.lo - 1 in occupied
            if span.hi < 9:
                assert span.hi + 1 in occupied


class TestStatistics:
    def test_densities(self):
        g = make_grid(5, 5)
        g.occupy_h(2, 0, 4, net_id=1)
        assert routed_density(g, 2, 2, radius=2) > 0
        assert congestion(g, 2, 2, radius=2) >= routed_density(g, 2, 2, 2)

    def test_congestion_counts_obstacles(self):
        g = make_grid(5, 5)
        g.add_obstacle(Rect(0, 0, 40, 40))
        assert routed_density(g, 2, 2, radius=2) == 0.0
        assert congestion(g, 2, 2, radius=2) == 1.0

    @pytest.mark.parametrize(("nv", "nh"), [(5, 4), (12, 9)])
    def test_window_counts_match_slices_at_every_corner(self, nv, nh):
        """Every corner's counts, clipped windows included, equal a direct
        count over the clipped slices of the snapshot arrays."""
        g = make_grid(nv, nh)
        g.occupy_h(0, 0, 2, net_id=1)
        g.occupy_v(nv - 1, 1, nh - 1, net_id=2)
        g.occupy_corner(2, 2, net_id=3)
        g.reserve_terminal(0, nh - 1, net_id=4)
        g.reserve_terminal(0, nh - 1, net_id=4)
        g.reserve_terminal(nv - 2, 0, net_id=5)
        g.add_obstacle(Rect(10, 30, 10, 30), block_h=True, block_v=False)
        snap = g.snapshot()
        v, h = (a.ravel() for a in np.meshgrid(np.arange(nv), np.arange(nh)))
        for radius in (0, 1, 3):
            got = g.window_counts(v, h, radius)
            for i, (vi, hi) in enumerate(zip(v.tolist(), h.tolist())):
                hs = slice(max(0, hi - radius), hi + radius + 1)
                vs = slice(max(0, vi - radius), vi + radius + 1)
                h_own, v_own = snap.h_owner[hs, vs], snap.v_owner[vs, hs]
                want = (
                    int((h_own > 0).sum() + (v_own > 0).sum()),
                    int(snap.unrouted_terms[hs, vs].sum()),
                    int((h_own != FREE).sum() + (v_own != FREE).sum()),
                    h_own.size,
                )
                assert tuple(int(a[i]) for a in got) == want, (vi, hi, radius)

    def test_owners(self):
        g = make_grid()
        g.occupy_h(1, 0, 2, net_id=5)
        g.occupy_v(7, 0, 2, net_id=3)
        assert g.owners() == [3, 5]

    def test_clear_net(self):
        g = make_grid()
        g.occupy_h(1, 0, 2, net_id=5)
        g.occupy_corner(6, 6, net_id=5)
        freed = g.rip_net(5)
        assert freed == 5  # 3 h-slots + corner's h and v slots
        assert g.owners() == []
        with pytest.raises(ValueError):
            g.rip_net(0)

    def test_memory_accounting(self):
        # 4 + 4 + 2 bytes per intersection (int32 h/v owners, int16
        # unrouted terminals), allocated up front: the mem.grid_bytes
        # gauge.
        g = make_grid(10, 8)
        assert g.memory_bytes() == 10 * 80
        g.occupy_h(3, 2, 9, net_id=1)
        assert g.memory_bytes() == 10 * 80
        planes = PlaneSet(g.vtracks, g.htracks, num_planes=3)
        assert planes.memory_bytes() == 3 * g.memory_bytes()
        # Sized to 100 nets, the owners narrow to int8: 1 + 1 + 2 bytes;
        # with at most 6 pins a net, the terminal map too: 1 + 1 + 1.
        assert RoutingGrid(g.vtracks, g.htracks, 100).memory_bytes() == 4 * 80
        narrow = RoutingGrid(g.vtracks, g.htracks, num_nets=100, max_degree=6)
        assert narrow.memory_bytes() == 3 * 80
        planes = PlaneSet(g.vtracks, g.htracks, 3, num_nets=100, max_degree=6)
        assert planes.memory_bytes() == 3 * narrow.memory_bytes()

    def test_owners_near(self):
        g = make_grid()
        g.occupy_h(2, 2, 3, net_id=4)
        g.occupy_v(8, 0, 1, net_id=6)
        assert g.owners_near(2, 2, radius=1) == [4]
        assert 6 in g.owners_near(8, 1, radius=1)


class TestOwnerWidth:
    """Owner arrays take the narrowest signed type that holds every net id."""

    @pytest.mark.parametrize(
        ("num_nets", "dtype"),
        [
            (None, np.int32),
            (1, np.int8),
            (127, np.int8),
            (128, np.int16),
            (32_767, np.int16),
            (32_768, np.int32),
        ],
    )
    def test_capacity_boundaries(self, num_nets, dtype):
        if num_nets is not None:
            assert narrowest_int(num_nets) == dtype
        g = RoutingGrid(TrackSet([0, 10]), TrackSet([0, 10]), num_nets)
        snap = g.snapshot()
        assert snap.h_owner.dtype == snap.v_owner.dtype == dtype
        assert g.max_net_id == np.iinfo(dtype).max
        if num_nets is not None:
            # The run's largest id is stored exactly, never wrapped.
            g.set_net_footprint(num_nets, 2, 0)
            g.reserve_terminal(0, 0, num_nets)
            assert g.h_slot(0, 0) == g.v_slot(1, 1) == num_nets

    def test_more_nets_than_int32_rejected(self):
        with pytest.raises(ValueError):
            narrowest_int(2**31)
        with pytest.raises(ValueError):
            RoutingGrid(TrackSet([0, 10]), TrackSet([0, 10]), num_nets=2**31)

    @pytest.mark.parametrize(
        ("max_degree", "dtype"),
        [(None, np.int16), (6, np.int8), (127, np.int8), (128, np.int16)],
    )
    def test_terminal_counts_sized_to_the_degree(self, max_degree, dtype):
        g = RoutingGrid(TrackSet([0, 10]), TrackSet([0, 10]), 1, max_degree)
        assert g.snapshot().unrouted_terms.dtype == dtype
        # One net's coincident pins stack up to its degree at one point.
        for _ in range(max_degree or 3):
            g.reserve_terminal(1, 0, 1)
        assert terminals_near(g, 1, 0, radius=0) == (max_degree or 3)

    def test_terminal_count_above_capacity_rejected(self):
        g = RoutingGrid(TrackSet([0, 10]), TrackSet([0, 10]), 1, max_degree=6)
        for _ in range(127):  # int8: the count may reach 127, not wrap
            g.reserve_terminal(1, 0, 1)
        before = g.snapshot()
        with pytest.raises(ValueError):
            g.reserve_terminal(1, 0, 1)
        assert g.matches(before)
        assert terminals_near(g, 1, 0, radius=0) == 127

    @pytest.mark.parametrize("num_nets", [127, 32_767, None])
    def test_id_above_capacity_rejected(self, num_nets):
        g = RoutingGrid(TrackSet([0, 10]), TrackSet([0, 10]), num_nets)
        before = g.snapshot()
        too_big = g.max_net_id + 1
        with pytest.raises(ValueError):
            g.reserve_terminal(0, 0, too_big)
        with pytest.raises(ValueError):
            g.set_net_footprint(too_big, 2, 0)
        assert g.matches(before)
        assert g.footprint_of(too_big) == (1, 0)

    def test_planes_share_the_width(self):
        planes = PlaneSet(TrackSet([0, 10]), TrackSet([0, 10]), 2, num_nets=200)
        assert [g.max_net_id for g in planes] == [32_767, 32_767]


class TestClearNetRoundTrip:
    """rip_net must exactly undo a net's commits (rip-up safety)."""

    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_commit_clear_restores_grid(self, seed):
        import random as _random
        from repro.geometry import Point

        rng = _random.Random(seed)
        g = make_grid(12, 12)
        # Pre-existing foreign wiring that must survive untouched.
        g.occupy_h(2, 0, 5, net_id=7)
        g.occupy_v(9, 3, 8, net_id=7)
        before = g.snapshot()
        # Commit a random staircase for net 3 in the free region.
        x = rng.randrange(3, 8) * 10
        y = rng.randrange(4, 8) * 10
        points = [Point(x, y)]
        for _ in range(3):
            last = points[-1]
            if rng.random() < 0.5:
                points.append(Point(min(110, last.x + 10), last.y))
            else:
                points.append(Point(last.x, max(40, min(110, last.y + 10))))
        dedup = [points[0]]
        for p in points[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        corners = []
        for a, b, c in zip(dedup, dedup[1:], dedup[2:]):
            if (a.x == b.x) != (b.x == c.x):
                corners.append(
                    (g.vtracks.index_of(b.x), g.htracks.index_of(b.y))
                )
        try:
            g.commit_path(3, dedup, corners)
        except ValueError:
            return  # collided with the foreign wiring; nothing to test
        g.rip_net(3)
        assert g.matches(before)


class TestIndexValidation:
    """Index-taking accessors reject out-of-range (esp. negative) indices.

    Python's negative indexing used to wrap around silently, returning
    the wrong cell instead of failing; every point accessor now raises
    ``IndexError`` naming the offending index.
    """

    def test_coord_of_negative_v(self):
        g = make_grid()
        with pytest.raises(IndexError, match="v-track index -1"):
            g.coord_of(-1, 2)

    def test_coord_of_negative_h(self):
        g = make_grid()
        with pytest.raises(IndexError, match="h-track index -3"):
            g.coord_of(3, -3)

    def test_coord_of_too_large(self):
        g = make_grid(10, 8)
        with pytest.raises(IndexError, match="v-track index 10"):
            g.coord_of(10, 0)
        with pytest.raises(IndexError, match="h-track index 8"):
            g.coord_of(0, 8)

    def test_slot_accessors_validate(self):
        g = make_grid()
        for call in (
            lambda: g.h_slot(-1, 0),
            lambda: g.v_slot(0, -2),
            lambda: g.corner_free(-4, 0, 1),
            lambda: g.window_counts(np.array([3, -1]), np.array([2, 2]), 3),
            lambda: g.window_counts(np.array([9]), np.array([8]), 0),
        ):
            with pytest.raises(IndexError):
                call()

    def test_mutators_validate(self):
        g = make_grid()
        with pytest.raises(IndexError):
            g.reserve_terminal(-1, 0, net_id=1)
        with pytest.raises(IndexError):
            g.occupy_corner(0, -1, net_id=1)
        with pytest.raises(IndexError):
            g.mark_terminal_routed(-2, -2)

    def test_rejected_mutation_leaves_grid_clean(self):
        g = make_grid()
        before = g.snapshot()
        with pytest.raises(IndexError):
            g.reserve_terminal(-1, 3, net_id=5)
        assert g.matches(before)
