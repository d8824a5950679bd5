"""Tests for the ASCII/SVG renderers."""

import os
from pathlib import Path

from repro.bench_suite import random_design
from repro.channels import ChannelProblem, GreedyChannelRouter
from repro.core import LevelBRouter
from repro.core.search import MBFSearch
from repro.flow import overcell_flow
from repro.geometry import Rect
from repro.viz import (
    levelb_legend,
    render_channel,
    render_levelb_ascii,
    render_pst,
    render_tig,
    svg_layout,
)
from repro.viz.svg import svg_flow_result

from conftest import make_figure1_instance, make_toy_design

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestChannelRendering:
    def test_contains_net_letters(self):
        p = ChannelProblem.from_pin_lists([(0, 1), (6, 2)], [(6, 1), (0, 2)])
        route = GreedyChannelRouter().route(p)
        art = render_channel(route, p)
        assert "A" in art  # net 1
        assert "B" in art  # net 2
        assert "-" in art and "|" in art

    def test_row_count(self):
        p = ChannelProblem.from_pin_lists([(0, 1)], [(3, 1)])
        route = GreedyChannelRouter().route(p)
        art = render_channel(route, p)
        assert len(art.splitlines()) == route.tracks + 2


class TestTigRendering:
    def test_adjacency_listing(self):
        tig, _ = make_figure1_instance()
        art = render_tig(tig)
        assert art.splitlines()[0].startswith("TIG:")
        assert any(line.strip().startswith("v1:") for line in art.splitlines())

    def test_obstacle_absent_from_listing(self):
        tig, _ = make_figure1_instance()
        art = render_tig(tig)
        # The obstacle blocks (v4,h3): v4's row must not list h3.
        v4_line = next(l for l in art.splitlines() if l.strip().startswith("v4:"))
        assert "h3" not in v4_line


class TestPstRendering:
    def test_tree_structure(self):
        tig, nets = make_figure1_instance()
        net_id, (a, b) = nets["B"]
        res = MBFSearch(tig.grid, net_id, a, b).run()
        art = render_pst(res.roots[0], res.leaves)
        lines = art.splitlines()
        assert lines[0] in ("v2", "h2")
        assert any("*" in line for line in lines)  # a completing leaf
        # The trees are built on demand around the leaf objects: every
        # leaf is marked exactly once across both trees.
        marks = sum(render_pst(root, res.leaves).count("*") for root in res.roots)
        assert marks == len(res.leaves)


class TestLevelBRendering:
    def test_ascii_plot(self):
        design = make_toy_design()
        result = LevelBRouter(
            Rect(0, 0, 256, 256), list(design.nets.values())
        ).route()
        art = render_levelb_ascii(result, width=60, cells=design.cells.values())
        lines = art.splitlines()
        assert len(lines) > 3
        assert any("o" in line for line in lines)  # terminals
        assert any(ch in art for ch in "-|+")  # wiring

    def test_svg_document(self):
        design = make_toy_design()
        result = LevelBRouter(
            Rect(0, 0, 256, 256), list(design.nets.values())
        ).route()
        doc = svg_layout(
            Rect(0, 0, 256, 256),
            cells=design.cells.values(),
            levelb=result,
            obstacles=[Rect(10, 10, 20, 20)],
            title="test",
        )
        assert doc.startswith("<svg")
        assert doc.rstrip().endswith("</svg>")
        assert "<line" in doc
        assert "<circle" in doc or result.total_corners == 0
        assert "stroke-dasharray" in doc  # the obstacle

    def test_svg_flow_result(self):
        design = random_design("viz", seed=3, num_cells=6, num_nets=12)
        result = overcell_flow(design)
        doc = svg_flow_result(result)
        assert doc.startswith("<svg")
        assert design.name in doc


def _golden_result():
    """A small deterministic two-plane routing for snapshot tests."""
    design = make_toy_design()
    return LevelBRouter(
        Rect(0, 0, 256, 256),
        list(design.nets.values()),
        planes=2,
    ).route()


def _check_golden(name: str, rendered: str) -> None:
    """Compare against tests/golden/<name>; REGEN_GOLDEN=1 rewrites."""
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(rendered)
    assert path.exists(), (
        f"golden file {path} missing - run with REGEN_GOLDEN=1 to create"
    )
    assert rendered == path.read_text(), (
        f"rendering drifted from {path}; if the change is intended, "
        "regenerate with REGEN_GOLDEN=1"
    )


class TestGoldenRenderings:
    """Snapshot tests: renderings of a routed two-plane design.

    The routers are deterministic, so the rendered output is stable
    byte-for-byte.  The golden files live in ``tests/golden/``;
    re-create them with ``REGEN_GOLDEN=1 pytest tests/test_viz.py``
    after an intended rendering change.
    """

    def test_ascii_snapshot_with_plane_legend(self):
        result = _golden_result()
        art = render_levelb_ascii(result, width=60, legend=True)
        assert "plane 0 (metal3/metal4)" in art
        assert "plane 1 (metal5/metal6)" in art
        _check_golden("levelb_planes2.txt", art)

    def test_svg_golden_with_plane_legend(self):
        result = _golden_result()
        doc = svg_layout(
            Rect(0, 0, 256, 256),
            levelb=result,
            title="golden two-plane routing",
            legend=True,
        )
        assert "plane 0: metal3/metal4" in doc
        assert "plane 1: metal5/metal6" in doc
        # Higher planes draw dashed so the stack reads at a glance.
        assert "stroke-dasharray" in doc
        _check_golden("levelb_planes2.svg", doc)

    def test_legend_matches_plane_count(self):
        result = _golden_result()
        legend = levelb_legend(result)
        assert len(legend.splitlines()) == result.num_planes == 2
