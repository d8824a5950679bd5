"""Tests for the N-plane over-cell generalization.

Covers the technology's plane model (:meth:`Technology.plane`,
:attr:`Technology.num_overcell_planes`), the plane labels every report
prints, the per-plane :class:`PlaneSet` grid container, the static
plane-assignment pass, and the two whole-stack guarantees:

* **planes=1 parity** - the default single-plane configuration commits
  geometry bit-identical to the pre-refactor router (sha256 digests
  captured from the seed revision on every bundled suite);
* **planes=2 cleanliness** - a two-plane flow completes and passes the
  full independent verification with zero violations.
"""

import hashlib
import json

import pytest

from repro.bench_suite import ami33_like
from repro.core import LevelBRouter, NetDemand, assign_planes
from repro.flow import FlowParams, overcell_flow
from repro.geometry import Point, Rect
from repro.grid import PlaneSet, TrackSet
from repro.technology import (
    Technology,
    ensure_overcell_planes,
    plane_layer_indices,
    preset_stackup,
    technology_from_stackup,
)

from conftest import make_toy_design
from counter_golden import routed


# ----------------------------------------------------------------------
# Technology: the over-cell planes of a stack
# ----------------------------------------------------------------------
def _names(layers):
    return [layer.name for layer in layers]


class TestLayerStack:
    def test_plane_layer_indices(self):
        assert plane_layer_indices(0) == (3, 4)
        assert plane_layer_indices(1) == (5, 6)
        assert plane_layer_indices(2) == (7, 8)
        with pytest.raises(ValueError):
            plane_layer_indices(-1)

    def test_four_layer_has_one_plane(self):
        tech = Technology.four_layer()
        assert tech.num_overcell_planes == 1
        assert [layer.index for layer in tech.plane(0)] == [3, 4]
        assert _names(tech.plane(0)) == ["metal3", "metal4"]

    def test_six_layer_has_two_planes(self):
        tech = ensure_overcell_planes(Technology.four_layer(), 2)
        assert tech.num_overcell_planes == 2
        assert _names(tech.plane(0)) == ["metal3", "metal4"]
        assert _names(tech.plane(1)) == ["metal5", "metal6"]

    def test_plane_index_error(self):
        tech = Technology.four_layer()
        with pytest.raises(IndexError):
            tech.plane(1)
        with pytest.raises(IndexError):
            tech.plane(-1)

    def test_trailing_unpaired_layer_ignored(self):
        assert Technology.two_layer().num_overcell_planes == 0
        # A layer with no partner carries no plane, so construction does
        # not check its direction either.
        doc = preset_stackup()
        doc["metals"].append(
            {"name": "metal5", "index": 5, "direction": "horizontal", "pitch": 16}
        )
        tech = technology_from_stackup(doc)
        assert tech.num_layers == 5 and tech.num_overcell_planes == 1
        with pytest.raises(IndexError):
            tech.plane(1)

    def test_ensure_overcell_planes_extends(self):
        tech = Technology.four_layer()
        extended = ensure_overcell_planes(tech, 3)
        assert extended.num_layers == 8
        assert extended.num_overcell_planes == 3
        # Upper planes follow the wider-pitch extrapolation.
        assert extended.layer(5).pitch > extended.layer(3).pitch

    def test_ensure_overcell_planes_noop_when_tall_enough(self):
        tech = ensure_overcell_planes(Technology.four_layer(), 2)
        assert ensure_overcell_planes(tech, 2) is tech


# ----------------------------------------------------------------------
# Grid: PlaneSet
# ----------------------------------------------------------------------
def _plane_set(num_planes=2):
    return PlaneSet(
        TrackSet(range(0, 100, 10)), TrackSet(range(0, 80, 10)), num_planes
    )


class TestPlaneSet:
    def test_shape(self):
        planes = _plane_set(3)
        assert len(planes) == planes.num_planes == 3
        assert all(g.num_vtracks == 10 for g in planes)
        with pytest.raises(IndexError):
            planes[3]

    def test_planes_are_independent(self):
        planes = _plane_set()
        planes[0].occupy_h(2, 0, 5, net_id=1)
        assert planes[1].h_slot(2, 0) == 0  # FREE

    def test_transaction_fans_out(self):
        planes = _plane_set()
        with pytest.raises(RuntimeError):
            with planes.transaction():
                planes[0].occupy_h(2, 0, 5, net_id=1)
                planes[1].occupy_v(3, 0, 5, net_id=1)
                assert planes.in_transaction
                raise RuntimeError("force rollback")
        assert planes[0].h_slot(2, 0) == 0
        assert planes[1].v_slot(3, 0) == 0
        assert not planes.in_transaction

    def test_snapshot_matches(self):
        planes = _plane_set()
        before = planes.snapshot()
        planes[1].occupy_h(1, 0, 3, net_id=2)
        assert not planes.matches(before)
        planes[1].rip_net(2)
        assert planes.matches(before)

    def test_add_obstacle_blocks_every_plane(self):
        planes = _plane_set()
        blocked = planes.add_obstacle(Rect(20, 20, 40, 30))
        assert blocked == 6  # 3 v-tracks x 2 h-tracks, on every plane
        assert all(not g.corner_free(2, 2, 1) for g in planes)


# ----------------------------------------------------------------------
# Core: the plane-assignment pass
# ----------------------------------------------------------------------
def _demand(net_id, *pins):
    return NetDemand(net_id, tuple(Point(x, y) for x, y in pins))


class TestAssignPlanes:
    BOUNDS = Rect(0, 0, 400, 300)

    def test_single_plane_shortcut(self):
        nets = [_demand(1, (0, 0), (100, 100)), _demand(2, (5, 5), (9, 9))]
        assert assign_planes(nets, self.BOUNDS, 1, 4.0) == {1: 0, 2: 0}

    def test_rejects_zero_planes(self):
        with pytest.raises(ValueError):
            assign_planes([], self.BOUNDS, 0, 4.0)

    def test_deterministic(self):
        nets = [
            _demand(i, (i * 7 % 380, i * 13 % 280), (i * 31 % 390, i * 11 % 290))
            for i in range(1, 40)
        ]
        a = assign_planes(nets, self.BOUNDS, 2, 4.0)
        b = assign_planes(list(reversed(nets)), self.BOUNDS, 2, 4.0)
        assert a == b

    def test_congestion_spills_to_upper_plane(self):
        # Many long nets over the same region: the via penalty loses to
        # accumulated demand and some nets move up.
        nets = [_demand(i, (0, 0), (380, 280)) for i in range(1, 30)]
        assignment = assign_planes(nets, self.BOUNDS, 2, 0.5)
        assert set(assignment.values()) == {0, 1}

    def test_isolated_nets_stay_low(self):
        # A lone cheap net has no congestion reason to climb.
        assignment = assign_planes(
            [_demand(1, (0, 0), (50, 40))], self.BOUNDS, 3, 4.0
        )
        assert assignment == {1: 0}


# ----------------------------------------------------------------------
# Router: plane-aware routing
# ----------------------------------------------------------------------
class TestMultiPlaneRouting:
    def test_planes_require_tall_technology(self):
        design = make_toy_design()
        with pytest.raises(ValueError, match="6-layer technology"):
            LevelBRouter(
                Rect(0, 0, 256, 256),
                list(design.nets.values()),
                technology=Technology.four_layer(),
                planes=2,
            )

    def test_two_plane_toy_route(self):
        design = make_toy_design()
        result = LevelBRouter(
            Rect(0, 0, 256, 256),
            list(design.nets.values()),
            planes=2,
        ).route()
        assert result.num_planes == 2
        assert result.completion_rate == 1.0
        by_plane = {p: result.nets_on_plane(p) for p in range(2)}
        assert sum(len(v) for v in by_plane.values()) == len(result.routed)

    def test_via_accounting_prices_altitude(self):
        design = make_toy_design()
        result = LevelBRouter(
            Rect(0, 0, 256, 256),
            list(design.nets.values()),
            planes=2,
        ).route()
        # Every terminal stack of a plane-1 net is 2 levels deeper, so
        # total vias must be >= the naive plane-0 count.
        naive = result.total_corners + sum(
            r.net.degree - r.failed_terminals for r in result.routed
        )
        assert result.total_vias >= naive
        if any(r.plane == 1 for r in result.routed):
            assert result.total_vias > naive


# ----------------------------------------------------------------------
# Plane labels: the routed technology's layer names, at every site
# ----------------------------------------------------------------------
def _m_stackup() -> dict:
    """The four-layer preset with its metals named ``M1`` ... ``M4``."""
    doc = preset_stackup()
    for metal in doc["metals"]:
        metal["name"] = f"M{metal['index']}"
    return doc


class TestPlaneLabels:
    @pytest.fixture(scope="class")
    def m_result(self):
        tech = technology_from_stackup(_m_stackup())
        return overcell_flow(make_toy_design(), FlowParams(technology=tech))

    def test_report_names_the_routed_layers(self, m_result):
        from repro.analysis import routing_report

        assert m_result.levelb.plane_labels() == ["M3/M4"]
        report = routing_report(m_result)
        assert "Level B (over-cell, M3/M4)" in report
        assert "metal3" not in report

    def test_legends_name_the_routed_layers(self, m_result):
        from repro.viz import levelb_legend, render_levelb_ascii
        from repro.viz.svg import svg_flow_result

        assert levelb_legend(m_result.levelb) == (
            "plane 0 (M3/M4): - horizontal, | vertical"
        )
        art = render_levelb_ascii(m_result.levelb, width=40, legend=True)
        assert "plane 0 (M3/M4)" in art
        doc = svg_flow_result(m_result, legend=True)
        assert "plane 0: M3/M4" in doc and "metal3" not in doc

    def test_route_command_names_the_routed_layers(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_design

        design, tech = tmp_path / "design.json", tmp_path / "m.json"
        save_design(make_toy_design(), design)
        tech.write_text(json.dumps(_m_stackup()))
        main(["route", "--design", str(design), "--tech", str(tech)])
        out = capsys.readouterr().out
        assert "  plane 0 (M3/M4): " in out and "metal3" not in out

    def test_hand_built_result_falls_back_to_the_grown_preset(self):
        from repro.core.router import LevelBResult
        from repro.core.tig import TrackIntersectionGraph

        tig = TrackIntersectionGraph(
            TrackSet([0, 8]), TrackSet([0, 8]), num_planes=2
        )
        result = LevelBResult(tig=tig, routed=[], elapsed_s=0.0, nodes_created=0)
        assert result.plane_labels() == ["metal3/metal4", "metal5/metal6"]
        assert result.routed_technology == ensure_overcell_planes(
            Technology.four_layer(), 2
        )


# ----------------------------------------------------------------------
# Whole-stack guarantees
# ----------------------------------------------------------------------
def _geometry_digest(res):
    """sha256 over the committed geometry, order-independent."""
    payload = []
    for r in sorted(res.levelb.routed, key=lambda r: r.net.name):
        payload.append(
            {
                "net": r.net.name,
                "complete": r.complete,
                "fail": r.failed_terminals,
                "conns": [
                    {
                        "w": [[p.x, p.y] for p in c.path.waypoints()],
                        "k": sorted(c.corners),
                    }
                    for c in r.connections
                ],
            }
        )
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


#: Geometry digests captured from the pre-refactor seed revision.  The
#: single-plane configuration must keep reproducing these exactly.
PARITY_DIGESTS = {
    "ami33": "f846dfe7cff7b201a499ff3ec0d642dcd75ccdb2d367cb5ce8335d383bc8a41c",
    "xerox": "e65856e1e874e43bfa738b52225d95d61ebe5f857f4f84993d4738f2aa1ba61d",
    "ex3": "89b756c1d7e708a6cc86f41654dab50034fa47c5855bda483394d1847b929b19",
}


class TestSinglePlaneParity:
    @pytest.mark.parametrize("suite", sorted(PARITY_DIGESTS))
    def test_default_flow_bit_identical_to_seed(self, suite):
        # The same profiled route the counter golden reads.
        res = routed(suite)
        assert res.flow == "overcell-4layer"
        assert _geometry_digest(res) == PARITY_DIGESTS[suite], (
            f"planes=1 geometry drifted from the pre-refactor baseline "
            f"on {suite}"
        )
        assert all(r.plane == 0 for r in res.levelb.routed)


class TestTwoPlaneFlow:
    def test_ami33_two_planes_checked_clean(self):
        res = overcell_flow(ami33_like(), FlowParams(planes=2, checked=True))
        assert res.flow == "overcell-6layer"
        assert res.levelb.completion_rate == 1.0
        assert res.check_report is not None
        assert res.check_report.violations == []
        assert "drc.stack" in res.check_report.rules_run
        # Both planes actually carry nets on this suite.
        planes_used = {r.plane for r in res.levelb.routed}
        assert planes_used == {0, 1}
