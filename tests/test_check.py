"""The independent verification engine (repro.check).

Two test families: honest router output must verify CLEAN, and every
rule in the catalogue must fire on a targeted corruption (injection
tests - one per rule id, as documented in docs/VERIFICATION.md).
"""

from __future__ import annotations

import pytest

from conftest import make_toy_design
from repro import instrument
from repro.check import (
    ALL_RULES,
    CheckFailure,
    CheckReport,
    RULE_CHANNEL,
    RULE_CORNER,
    RULE_CORNER_CLAIM,
    RULE_CORNER_PER_TRACK,
    RULE_DANGLING,
    RULE_JOURNAL,
    RULE_LAYER,
    RULE_LEDGER,
    RULE_MERGED,
    RULE_OBSTACLE,
    RULE_OPEN,
    RULE_SHORT,
    RULE_TRACK,
    Severity,
    Violation,
    check_flow,
    check_grid,
    check_layer_assignment,
    check_levelb,
)
from repro.core import LevelBRouter
from repro.core.engine import RoutedConnection
from repro.core.router import LevelBResult, Obstacle, RoutedNet
from repro.core.tig import GridTerminal, TrackIntersectionGraph
from repro.flow import FlowParams, overcell_flow, two_layer_flow
from repro.geometry import Path, Point, Rect, Segment
from repro.grid import TrackSet


# ----------------------------------------------------------------------
# Crafted-result scaffolding: full control over the geometry under test
# ----------------------------------------------------------------------
class FakeNet:
    """Just enough net surface for LevelBResult and the checker."""

    is_sensitive = False

    def __init__(self, name, pins):
        self.name = name
        self._pins = [Point(*p) for p in pins]

    def pin_positions(self):
        return list(self._pins)

    @property
    def degree(self):
        return len(self._pins)


def path_of(*points):
    pts = [Point(*p) for p in points]
    return Path(tuple(Segment(a, b) for a, b in zip(pts, pts[1:])))


def connection(path, corners, grid, *, commit_to=None):
    """A RoutedConnection; optionally committed to the grid for real."""
    conn = RoutedConnection(
        source=GridTerminal(0, 0),
        target=GridTerminal(0, 0),
        path=path,
        corners=list(corners),
        expansions_used=0,
    )
    if commit_to is not None:
        grid.commit_path(commit_to, path.waypoints(), conn.corners)
    return conn


def make_crafted(with_net_c=False):
    """A hand-built, provably legal two/three-net level B result.

    Net A: L-path (0,0) -> (0,20) -> (20,20), corner at (0,20).
    Net B: straight vertical x=40.
    Net C (optional): L-path on its own tracks, used as corruption clay.
    Every wire is committed to the grid, so the bookkeeping audits see
    a consistent ledger.
    """
    vt = TrackSet([0, 10, 20, 30, 40, 50])
    ht = TrackSet([0, 10, 20, 30, 40])
    tig = TrackIntersectionGraph(vt, ht)
    grid = tig.grid

    nets = []
    a = FakeNet("A", [(0, 0), (20, 20)])
    tig.register_net(1, a.pin_positions())
    conn_a = connection(
        path_of((0, 0), (0, 20), (20, 20)), [(0, 2)], grid, commit_to=1
    )
    nets.append(RoutedNet(net=a, net_id=1, connections=[conn_a]))

    b = FakeNet("B", [(40, 0), (40, 40)])
    tig.register_net(2, b.pin_positions())
    conn_b = connection(path_of((40, 0), (40, 40)), [], grid, commit_to=2)
    nets.append(RoutedNet(net=b, net_id=2, connections=[conn_b]))

    if with_net_c:
        c = FakeNet("C", [(10, 30), (30, 30)])
        tig.register_net(3, c.pin_positions())
        conn_c = connection(
            path_of((10, 30), (30, 30)), [], grid, commit_to=3
        )
        nets.append(RoutedNet(net=c, net_id=3, connections=[conn_c]))

    return LevelBResult(
        tig=tig,
        routed=nets,
        elapsed_s=0.0,
        nodes_created=0,
        bounds=Rect(-5, -5, 55, 45),
    )


def fired(result_or_report, rule):
    report = (
        result_or_report
        if isinstance(result_or_report, CheckReport)
        else check_levelb(result_or_report)
    )
    return rule in report.counts()


# ----------------------------------------------------------------------
# Honest output verifies clean
# ----------------------------------------------------------------------
class TestHonestOutput:
    def test_crafted_result_is_clean(self):
        report = check_levelb(make_crafted(with_net_c=True))
        assert report.ok
        assert report.violations == []
        assert set(report.rules_run) <= set(ALL_RULES)

    def test_routed_toy_design_is_clean(self):
        design = make_toy_design()
        router = LevelBRouter(
            Rect(0, 0, 256, 256), list(design.nets.values())
        )
        report = check_levelb(router.route())
        assert report.ok, report.render()

    def test_overcell_flow_is_clean_with_layer_rule(self):
        result = overcell_flow(make_toy_design(), FlowParams())
        report = check_flow(result)
        assert report.ok, report.render()
        assert RULE_CHANNEL in report.rules_run
        assert RULE_LAYER in report.rules_run

    def test_checked_mode_flow_attaches_clean_report(self):
        result = overcell_flow(make_toy_design(), FlowParams(checked=True))
        assert result.check_report is not None
        assert result.check_report.ok

    def test_checked_mode_is_off_by_default(self):
        design = make_toy_design()
        router = LevelBRouter(Rect(0, 0, 256, 256), list(design.nets.values()))
        assert router.checked is False
        assert FlowParams().checked is False
        assert overcell_flow(make_toy_design()).check_report is None


# ----------------------------------------------------------------------
# Injection tests: every rule fires on its targeted corruption
# ----------------------------------------------------------------------
class TestDRCInjection:
    def test_short_fires_on_same_layer_overlap(self):
        result = make_crafted(with_net_c=True)
        # Net C's trunk rerouted onto net A's horizontal track.
        result.routed[2].connections[0].path = path_of((10, 20), (30, 20))
        report = check_levelb(result)
        assert fired(report, RULE_SHORT)
        short = report.by_rule(RULE_SHORT)[0]
        assert set(short.nets) == {"A", "C"}

    def test_short_fires_on_foreign_wire_through_via(self):
        result = make_crafted(with_net_c=True)
        # Net C's trunk rerouted through net A's corner via at (0,20):
        # different layer than A's m4 wire, but the via owns the cell.
        result.routed[2].connections[0].path = path_of((0, 10), (0, 30))
        report = check_levelb(result)
        assert fired(report, RULE_SHORT)

    def test_track_fires_on_off_track_wire(self):
        result = make_crafted()
        result.routed[1].connections[0].path = path_of((45, 0), (45, 40))
        report = check_levelb(result)
        assert fired(report, RULE_TRACK)

    def test_track_fires_on_out_of_bounds_wire(self):
        result = make_crafted()
        result.bounds = Rect(0, 0, 30, 40)  # net B at x=40 now outside
        report = check_levelb(result)
        assert fired(report, RULE_TRACK)

    def test_corner_fires_on_claim_off_turn(self):
        result = make_crafted()
        result.routed[0].connections[0].corners = [(0, 1)]  # (0,10): no turn
        assert fired(result, RULE_CORNER)

    def test_corner_fires_on_out_of_grid_claim(self):
        result = make_crafted()
        result.routed[0].connections[0].corners = [(99, 99)]
        assert fired(result, RULE_CORNER)

    def test_obstacle_fires_on_wire_through_blocked_area(self):
        result = make_crafted()
        result.obstacles = (Obstacle(Rect(5, 15, 15, 25), name="o1"),)
        report = check_levelb(result)
        # Net A's trunk y=20 spans x=[0,20]; intersection (10,20) blocked.
        assert fired(report, RULE_OBSTACLE)
        assert "o1" in report.by_rule(RULE_OBSTACLE)[0].message

    def test_obstacle_respects_direction_flags(self):
        result = make_crafted()
        # Blocks only vertical wiring; net A's m4 trunk may cross.
        result.obstacles = (
            Obstacle(Rect(5, 15, 15, 25), block_h=False, block_v=True),
        )
        report = check_levelb(result)
        assert not fired(report, RULE_OBSTACLE)


class TestLVSInjection:
    def test_open_fires_on_deleted_connection(self):
        result = make_crafted()
        result.routed[0].connections = []  # still claims complete
        report = check_levelb(result)
        assert fired(report, RULE_OPEN)
        assert report.by_rule(RULE_OPEN)[0].nets == ("A",)

    def test_open_not_reported_for_admitted_failures(self):
        result = make_crafted()
        result.routed[0].connections = []
        result.routed[0].failed_terminals = 1  # router admitted failure
        report = check_levelb(result)
        assert not fired(report, RULE_OPEN)

    def test_merged_fires_on_swapped_nets(self):
        result = make_crafted()
        a, b = result.routed[0], result.routed[1]
        a.net, b.net = b.net, a.net  # wiring now belongs to the wrong net
        report = check_levelb(result)
        # Each net's wiring now runs through the *other* net's terminal
        # stacks, so the rebuilt components each contain two nets.
        assert fired(report, RULE_MERGED)
        merged = report.by_rule(RULE_MERGED)[0]
        assert set(merged.nets) == {"A", "B"}

    def test_dangling_fires_on_orphan_metal(self):
        result = make_crafted()
        orphan = connection(path_of((10, 0), (30, 0)), [], None)
        result.routed[0].connections.append(orphan)
        report = check_levelb(result)
        dangling = report.by_rule(RULE_DANGLING)
        assert dangling and dangling[0].severity is Severity.WARNING


class TestInvariantInjection:
    def test_corner_per_track_fires_on_double_departure(self):
        result = make_crafted()
        # Departs y=0 twice before the final run.
        path = path_of(
            (0, 0), (20, 0), (20, 20), (30, 20), (30, 0), (40, 0), (40, 20),
            (50, 20),
        )
        corners = [(2, 0), (2, 2), (3, 2), (3, 0), (4, 0), (4, 2)]
        result.routed[0].connections[0].path = path
        result.routed[0].connections[0].corners = corners
        assert fired(result, RULE_CORNER_PER_TRACK)

    def test_corner_per_track_exempts_maze_rescues(self):
        result = make_crafted()
        path = path_of(
            (0, 0), (20, 0), (20, 20), (30, 20), (30, 0), (40, 0), (40, 20),
            (50, 20),
        )
        corners = [(2, 0), (2, 2), (3, 2), (3, 0), (4, 0), (4, 2)]
        conn = result.routed[0].connections[0]
        conn.path, conn.corners = path, corners
        conn.expansions_used = -1  # maze rescue: Lee gives no guarantee
        assert not fired(result, RULE_CORNER_PER_TRACK)

    def test_corner_claim_fires_on_dropped_claim(self):
        result = make_crafted()
        result.routed[0].connections[0].corners = []
        assert fired(result, RULE_CORNER_CLAIM)

    def test_layer_assignment_flags_misplaced_nets(self):
        result = make_crafted()
        violations = check_layer_assignment(
            result, set_a_names=["A"], set_b_names=["B"]
        )
        rules = {v.rule for v in violations}
        assert rules == {RULE_LAYER}
        messages = " ".join(v.message for v in violations)
        assert "set A net A" in messages


class TestGridAuditInjection:
    def test_ledger_fires_on_unledgered_wiring(self):
        result = make_crafted()
        grid = result.tig.grid
        # Simulate a bookkeeping bug: wiring appears with no ledger
        # record behind it.
        grid._h_owner[1, 1] = 7
        report = check_levelb(result)
        assert fired(report, RULE_LEDGER)

    def test_ledger_fires_on_lost_wiring(self):
        result = make_crafted()
        grid = result.tig.grid
        # Inverse bug: the ledger says net 2 owns x=40 cells, the array
        # lost one.
        grid._v_owner[4, 2] = 0
        report = check_levelb(result)
        assert fired(report, RULE_LEDGER)

    def test_journal_fires_on_open_transaction(self):
        result = make_crafted()
        result.tig.grid.begin()
        report = check_levelb(result)
        assert fired(report, RULE_JOURNAL)

    def test_check_grid_clean_on_honest_grid(self):
        result = make_crafted()
        report = check_grid(result.tig.grid)
        assert report.ok and report.violations == []


class TestChannelRule:
    def test_channel_rule_fires_on_corrupted_route(self):
        # The over-cell flow empties the toy design's channels; the
        # two-layer flow routes everything in them.
        flow = two_layer_flow(make_toy_design(), FlowParams())
        routed = [r for r in flow.channel_routes if r.jogs]
        assert routed, "two-layer flow should route at least one channel"
        del routed[0].jogs[0]  # disconnect a pin
        report = check_flow(flow)
        assert fired(report, RULE_CHANNEL)
        assert not report.ok

    def test_channel_rule_clean_on_honest_routes(self):
        flow = two_layer_flow(make_toy_design(), FlowParams())
        report = check_flow(flow)
        assert report.ok, report.render()
        assert RULE_CHANNEL in report.rules_run


# ----------------------------------------------------------------------
# Checked mode: per-commit sanitizer
# ----------------------------------------------------------------------
class TestCheckedMode:
    def test_checked_route_raises_on_corrupt_grid(self):
        design = make_toy_design()
        router = LevelBRouter(
            Rect(0, 0, 256, 256),
            list(design.nets.values()),
            checked=True,
        )
        # Poison the occupancy array before routing: the first commit's
        # audit must catch the unledgered cell.
        router.tig.grid._h_owner[2, 2] = 99
        with pytest.raises(CheckFailure) as exc:
            router.route()
        assert any(v.rule == RULE_LEDGER for v in exc.value.violations)

    def test_checked_route_passes_honest_run(self):
        design = make_toy_design()
        router = LevelBRouter(
            Rect(0, 0, 256, 256),
            list(design.nets.values()),
            checked=True,
        )
        result = router.route()
        assert check_levelb(result).ok

    def test_checked_route_tolerates_ambient_transaction(self):
        # The shape of repro.iterate's later passes: a whole route()
        # inside one plane-set transaction, rolled back afterwards.
        design = make_toy_design()
        router = LevelBRouter(
            Rect(0, 0, 256, 256),
            list(design.nets.values()),
            checked=True,
        )
        before = router.tig.planes.snapshot()
        txn = router.tig.planes.begin()
        router.route()  # journal is populated throughout - no violation
        txn.rollback()
        assert router.tig.planes.matches(before)

    def test_checked_mode_overhead_is_bounded(self):
        """Checked mode must stay under 2x: check spans < half the flow."""
        with instrument.collecting() as col:
            overcell_flow(make_toy_design(), FlowParams(checked=True))
        snap = instrument.snapshot(col)

        def total(node, names):
            own = node["total_s"] if node["name"] in names else 0.0
            return own + sum(total(c, names) for c in node["children"])

        flow_s = total(snap["spans"], {"flow.overcell"})
        check_s = total(snap["spans"], {"check", "check.commit"})
        assert flow_s > 0
        assert check_s < 0.5 * flow_s, (check_s, flow_s)


# ----------------------------------------------------------------------
# Reports and records
# ----------------------------------------------------------------------
class TestReportSurface:
    def test_violation_serialisation(self):
        v = Violation(
            RULE_SHORT, "boom", nets=("A", "B"), location=(3, 4), layer=4
        )
        d = v.to_dict()
        assert d["rule"] == RULE_SHORT
        assert d["nets"] == ["A", "B"]
        assert d["location"] == [3, 4]
        assert "ERROR" in str(v)

    def test_report_counts_and_render(self):
        report = CheckReport(subject="t")
        report.extend(
            [
                Violation(RULE_SHORT, "a"),
                Violation(RULE_SHORT, "b"),
                Violation(
                    RULE_DANGLING, "c", severity=Severity.WARNING
                ),
            ]
        )
        assert report.counts() == {RULE_SHORT: 2, RULE_DANGLING: 1}
        assert report.error_count == 2
        assert not report.ok
        assert "drc.short=2" in report.summary()
        assert report.render(limit=1).count("ERROR") == 1

    def test_clean_report_is_ok(self):
        report = CheckReport(subject="t", rules_run=ALL_RULES)
        assert report.ok
        assert "CLEAN" in report.summary()

    def test_check_report_serialised_with_flow_result(self):
        from repro.io import flow_result_to_dict

        result = overcell_flow(make_toy_design(), FlowParams(checked=True))
        doc = flow_result_to_dict(result)
        assert doc["check"]["ok"] is True
        assert "inv.corner_claim" in doc["check"]["rules_run"]
        plain = overcell_flow(make_toy_design(), FlowParams())
        assert "check" not in flow_result_to_dict(plain)

    def test_instrument_emits_check_events(self):
        result = make_crafted()
        result.routed[0].connections = []
        with instrument.collecting() as col:
            check_levelb(result)
        snap = instrument.snapshot(col)
        assert snap["counters"]["check.runs"] == 1
        assert snap["counters"]["check.violations"] >= 1
        assert any(
            e["event"] == "check.violation" for e in snap["events"]
        )
