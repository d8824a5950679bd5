"""Edge-case tests for MBFS internals and router fallbacks."""

import pytest

from repro import instrument
from repro.geometry import Interval, Point, Rect
from repro.grid import RoutingGrid, TrackSet
from repro.core import LevelBConfig, LevelBRouter, engine
from repro.core.router import Escalation
from repro.core.search import MBFSearch
from repro.core.tig import GridTerminal, TrackIntersectionGraph
from repro.maze import MazeRouter
from repro.netlist import Design, Edge

from conftest import track_cells


def fresh_tig(nv=8, nh=8):
    return TrackIntersectionGraph(
        TrackSet(range(0, nv * 10, 10)), TrackSet(range(0, nh * 10, 10))
    )


def one_net_design():
    d = Design("rescue")
    for name, x, y in (("c1", 0, 0), ("c2", 200, 120)):
        cell = d.add_cell(name, 16, 16)
        cell.place(x, y)
    net = d.add_net("n")
    net.add_pin(d.add_pin("c1", "p", Edge.TOP, 8))
    net.add_pin(d.add_pin("c2", "p", Edge.TOP, 8))
    return d


class TestCornerCandidates:
    def test_empty_grid_all_candidates(self):
        grid = RoutingGrid(TrackSet(range(0, 50, 10)), TrackSet(range(0, 50, 10)))
        assert track_cells(grid, True, 2, 0, 4, net_id=1)[1] == [0, 1, 2, 3, 4]
        assert track_cells(grid, False, 2, 1, 3, net_id=1)[1] == [1, 2, 3]

    def test_foreign_wire_excluded(self):
        grid = RoutingGrid(TrackSet(range(0, 50, 10)), TrackSet(range(0, 50, 10)))
        grid.occupy_h(2, 0, 4, net_id=9)  # h-track 2 fully foreign
        # Cornering on v-track 1 at h=2 needs both slots.
        assert 2 not in track_cells(grid, True, 1, 0, 4, net_id=1)[1]
        assert 2 in track_cells(grid, True, 1, 0, 4, net_id=9)[1]

    def test_matches_scalar_corner_free(self):
        grid = RoutingGrid(TrackSet(range(0, 80, 10)), TrackSet(range(0, 80, 10)))
        grid.occupy_h(3, 1, 5, net_id=2)
        grid.occupy_v(4, 2, 6, net_id=3)
        for v in range(8):
            batched = set(track_cells(grid, True, v, 0, 7, net_id=1)[1])
            scalar = {h for h in range(8) if grid.corner_free(v, h, 1)}
            assert batched == scalar


class TestSearchLimits:
    def test_node_budget_abort(self):
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(0, 0), Point(70, 70)])
        a, b = tig.terminals_of(1)
        res = MBFSearch(tig.grid, 1, a, b, max_nodes=2).run()
        assert res.aborted
        assert not res.found

    def test_entries_cap_one_still_finds_path(self):
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(0, 0), Point(70, 70)])
        a, b = tig.terminals_of(1)
        res = MBFSearch(tig.grid, 1, a, b, max_entries_per_track=1).run()
        assert res.found
        assert res.min_corners == 1

    def test_negative_entries_cap_raises(self):
        """A negative cap would also cap the target's column, which the
        cap exempts, and so silently find nothing."""
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(0, 0), Point(70, 70)])
        a, b = tig.terminals_of(1)
        with pytest.raises(ValueError, match="max_entries_per_track.*-1"):
            MBFSearch(tig.grid, 1, a, b, max_entries_per_track=-1)

    def test_router_refuses_negative_entries_cap(self):
        """Refused, not routed by the Lee rescue behind a blind search."""
        d = one_net_design()
        config = LevelBConfig(max_entries_per_track=-1)
        router = LevelBRouter(
            Rect(-16, -16, 260, 200), list(d.nets.values()), config=config
        )
        with pytest.raises(ValueError, match="max_entries_per_track"):
            router.route()

    def test_degenerate_region_single_track(self):
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(0, 30), Point(70, 30)])
        a, b = tig.terminals_of(1)
        region = (Interval(0, 7), Interval(3, 3))
        res = MBFSearch(tig.grid, 1, a, b, region=region).run()
        assert res.found
        assert res.min_corners == 0

    def test_blocked_root_spans(self):
        """Both root tracks blocked at the source: search fails fast."""
        tig = fresh_tig(8, 8)
        tig.register_net(1, [Point(30, 30), Point(70, 70)])
        # Surround the source so neither root can slide anywhere and
        # no corner is reachable.
        tig.add_obstacle(Rect(20, 30, 20, 30))
        tig.add_obstacle(Rect(40, 30, 40, 30))
        tig.add_obstacle(Rect(30, 20, 30, 20))
        tig.add_obstacle(Rect(30, 40, 30, 40))
        a, b = tig.terminals_of(1)
        res = MBFSearch(tig.grid, 1, a, b).run()
        # Roots exist (the terminal cell itself is usable) but nothing
        # is reachable beyond the walls.
        assert not res.found


class TestMazeRescue:
    def test_rescue_triggers_when_mbfs_capped(self, monkeypatch):
        """With MAX_DEPTH=0 the MBFS can never turn; the maze rescues."""
        monkeypatch.setattr(engine, "MAX_DEPTH", 0)
        d = one_net_design()
        config = LevelBConfig(maze_fallback=True, max_ripups=0)
        router = LevelBRouter(
            Rect(-16, -16, 260, 200), list(d.nets.values()), config=config
        )
        result = router.route()
        conn = result.routed[0].connections[0]
        assert result.completion_rate == 1.0
        assert conn.expansions_used == -1  # marks the maze rescue

    def test_no_rescue_when_disabled(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_DEPTH", 0)
        d = one_net_design()
        config = LevelBConfig(maze_fallback=False, max_ripups=0)
        router = LevelBRouter(
            Rect(-16, -16, 260, 200), list(d.nets.values()), config=config
        )
        result = router.route()
        assert result.completion_rate == 0.0

    # A closed ring of obstacles around the second pin (208, 136): wire
    # can leave the pin's cell but never the ring.
    RING = (
        Rect(196, 126, 228, 130),
        Rect(196, 138, 228, 142),
        Rect(196, 126, 204, 142),
        Rect(220, 126, 228, 142),
    )

    @pytest.mark.parametrize(
        "router_cls, fallback",
        [(LevelBRouter, True), (LevelBRouter, False), (MazeRouter, True)],
    )
    def test_walled_terminal_is_given_up_after_one_search(
        self, router_cls, fallback
    ):
        """The flood proves the target unreachable after the first window:
        no wider window, no rescue."""
        d = one_net_design()
        config = LevelBConfig(maze_fallback=fallback, max_ripups=0)
        router = router_cls(
            Rect(-16, -16, 260, 200),
            list(d.nets.values()),
            obstacles=self.RING,
            config=config,
        )
        with instrument.collecting() as col:
            result = router.route()
        counters = col.counters
        assert result.completion_rate == 0.0
        # One window searched, by whichever engine is primary.
        assert counters.get("mbfs.searches", 0) + counters["maze.searches"] == 1
        assert counters["maze.fallbacks"] == 0
        assert counters["region.expansions"] == 0
        assert counters["reach.floods"] == 1
        assert counters["reach.pruned"] == 1


class TestEscalation:
    """The per-connection window schedule: repeated windows skipped,
    one flood after the first failure."""

    def make_grid(self, wall: bool) -> tuple[RoutingGrid, GridTerminal, GridTerminal]:
        grid = RoutingGrid(TrackSet(range(0, 80, 10)), TrackSet(range(0, 80, 10)))
        source, target = GridTerminal(1, 1), GridTerminal(6, 6)
        for term in (source, target):
            grid.reserve_terminal(term.v_idx, term.h_idx, 1)
        if wall:
            grid.add_obstacle(Rect(40, 0, 40, 70))  # v-track 4, every h
        return grid, source, target

    def test_repeated_window_is_skipped(self):
        grid, source, target = self.make_grid(wall=False)
        first = (Interval(1, 3), Interval(1, 3))
        same = (Interval(2, 4), Interval(2, 4))  # the same hull with the terminals
        whole = (Interval(-5, 20), Interval(-5, 20))  # clips to the whole grid
        windows = Escalation(grid, 1, source, target, [first, same, None, whole])
        assert list(windows) == [first, None]
        assert not windows.unreachable

    def test_unreachable_target_stops_after_the_first_window(self):
        grid, source, target = self.make_grid(wall=True)
        first = (Interval(1, 3), Interval(1, 3))
        windows = Escalation(grid, 1, source, target, [first, None])
        with instrument.collecting() as col:
            assert list(windows) == [first]
        assert windows.unreachable
        assert col.counters["reach.floods"] == 1
        assert col.counters["reach.pruned"] == 1

    def test_no_flood_before_the_first_window_fails(self):
        grid, source, target = self.make_grid(wall=True)
        windows = Escalation(grid, 1, source, target, [None, None])
        with instrument.collecting() as col:
            assert next(iter(windows)) is None
        assert "reach.floods" not in col.counters
        assert not windows.unreachable
