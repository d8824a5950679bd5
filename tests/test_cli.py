"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--name", "nope", "--out", "x"])

    @pytest.mark.parametrize(
        "argv, low",
        [
            (["flow", "--suite", "ex3", "--planes", "0"], 1),
            (["check", "--suite", "ami33", "--planes", "-1"], 1),
            (["route", "--suite", "ami33", "--planes", "0"], 1),
            (["profile", "--suite", "ami33", "--out", "p.json", "--planes", "0"], 1),
            (["report", "--suite", "ami33", "--planes", "0"], 1),
            (["route", "--suite", "ami33", "--iterate", "--max-iterations", "-1"], 0),
            (["flow", "--suite", "ami33", "--planes", "two"], 1),
            (["check", "--suite", "ami33", "--limit", "-1"], 0),
            (["lint", "--limit", "-1"], 0),
            (["report", "--suite", "ami33", "--top", "-1"], 0),
        ],
        ids=[
            "flow-planes-zero",
            "check-planes-negative",
            "route-planes-zero",
            "profile-planes-zero",
            "report-planes-zero",
            "route-max-iterations-negative",
            "flow-planes-not-integer",
            "check-limit-negative",
            "lint-limit-negative",
            "report-top-negative",
        ],
    )
    def test_out_of_range_integers_are_usage_errors(self, argv, low, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert argv[-2] in err and f"integer >= {low}" in err


class TestSuiteCommand:
    def test_writes_design_json(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        rc = main(["suite", "--name", "ami33", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-design"
        assert len(doc["cells"]) == 33
        assert "wrote" in capsys.readouterr().out


class TestFlowCommand:
    @pytest.fixture()
    def design_file(self, tmp_path):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clid", seed=8, num_cells=6, num_nets=14,
                               num_critical=2)
        path = tmp_path / "design.json"
        save_design(design, path)
        return path

    def test_flow_from_design_file(self, design_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        summary = tmp_path / "summary.json"
        rc = main([
            "flow", "--design", str(design_file), "--flow", "overcell",
            "--svg", str(svg), "--json", str(summary),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overcell" in out
        assert svg.read_text().startswith("<svg")
        doc = json.loads(summary.read_text())
        assert doc["completion"] == 1.0

    def test_flow_two_layer(self, design_file, capsys):
        rc = main(["flow", "--design", str(design_file), "--flow", "two-layer"])
        assert rc == 0
        assert "two-layer-channel" in capsys.readouterr().out

    def test_flow_requires_input(self):
        with pytest.raises(SystemExit):
            main(["flow", "--flow", "overcell"])

    def test_outputs_into_missing_directories(self, design_file, tmp_path):
        """Output paths under directories that do not exist yet are
        created, instead of failing after the route finished."""
        svg = tmp_path / "plots" / "out.svg"
        summary = tmp_path / "new" / "nested" / "out.json"
        rc = main([
            "flow", "--design", str(design_file), "--flow", "overcell",
            "--svg", str(svg), "--json", str(summary),
        ])
        assert rc == 0
        assert svg.read_text().startswith("<svg")
        assert json.loads(summary.read_text())["completion"] == 1.0
        profile = tmp_path / "prof" / "p.json"
        csv = tmp_path / "csv" / "prof"
        rc = main([
            "profile", "--design", str(design_file), "--flow", "overcell",
            "--out", str(profile), "--csv", str(csv),
        ])
        assert rc == 0
        assert json.loads(profile.read_text())["format"] == "repro-profile"
        assert (tmp_path / "csv" / "prof.counters.csv").exists()
        html = tmp_path / "html" / "r.html"
        rc = main([
            "report", "--design", str(design_file), "--html", str(html),
        ])
        assert rc == 0
        assert html.read_text()
        out = tmp_path / "designs" / "d.json"
        assert main(["suite", "--name", "ami33", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["format"] == "repro-design"


class TestRouteCommand:
    @pytest.fixture()
    def design_file(self, tmp_path):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clirt", seed=11, num_cells=6, num_nets=14,
                               num_critical=2)
        path = tmp_path / "design.json"
        save_design(design, path)
        return path

    def test_route_two_planes(self, design_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        summary = tmp_path / "summary.json"
        rc = main([
            "route", "--design", str(design_file), "--planes", "2",
            "--svg", str(svg), "--json", str(summary),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overcell-6layer" in out
        assert "plane 0 (metal3/metal4):" in out
        assert "plane 1 (metal5/metal6):" in out
        # The SVG carries the per-plane legend.
        assert "plane 1: metal5/metal6" in svg.read_text()
        doc = json.loads(summary.read_text())
        assert doc["levelb"]["planes"] == 2
        assert all("plane" in net for net in doc["levelb"]["nets"])

    def test_route_default_single_plane(self, design_file, capsys):
        rc = main(["route", "--design", str(design_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overcell-4layer" in out
        assert "plane 0 (metal3/metal4):" in out
        assert "plane 1" not in out


class TestCheckCommand:
    @pytest.fixture()
    def design_file(self, tmp_path):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clichk", seed=9, num_cells=6, num_nets=14,
                               num_critical=2)
        path = tmp_path / "design.json"
        save_design(design, path)
        return path

    def test_check_clean_design(self, design_file, tmp_path, capsys):
        report_json = tmp_path / "report.json"
        rc = main([
            "check", "--design", str(design_file), "--flow", "overcell",
            "--json", str(report_json),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out
        doc = json.loads(report_json.read_text())
        assert doc["ok"] is True
        assert doc["violations"] == []
        assert "drc.short" in doc["rules_run"]

    def test_check_two_layer_flow(self, design_file, capsys):
        rc = main([
            "check", "--design", str(design_file), "--flow", "two-layer",
        ])
        assert rc == 0
        # Only the channel rule applies: the two-layer flow has no
        # level B wiring to verify.
        assert "CLEAN (1 rules checked)" in capsys.readouterr().out

    def test_check_requires_input(self):
        with pytest.raises(SystemExit):
            main(["check", "--flow", "overcell"])

    def test_check_two_planes_strict(self, design_file, capsys):
        rc = main([
            "check", "--design", str(design_file), "--flow", "overcell",
            "--planes", "2", "--strict",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overcell-6layer" in out
        assert "CLEAN" in out

    def test_zero_planes_rejected(self, design_file, capsys):
        # A usage error before any routing, not a traceback after it.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "check", "--design", str(design_file), "--flow", "overcell",
                "--planes", "0",
            ])
        assert excinfo.value.code == 2
        assert "must be an integer >= 1" in capsys.readouterr().err


class TestTablesCommand:
    def test_tables_from_design_file(self, tmp_path, capsys):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clit", seed=12, num_cells=6, num_nets=16,
                               num_critical=2)
        path = tmp_path / "d.json"
        save_design(design, path)
        rc = main(["tables", "--design", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Table 3" in out


class TestReportCommand:
    def test_report_from_design_file(self, tmp_path, capsys):
        from repro.bench_suite import random_design
        from repro.io import save_design

        design = random_design("clir", seed=14, num_cells=6, num_nets=14,
                               num_critical=2)
        path = tmp_path / "d.json"
        save_design(design, path)
        rc = main(["report", "--design", str(path), "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Routing report" in out
        assert "Level B" in out


class TestTechOption:
    def test_flow_with_custom_technology(self, tmp_path, capsys):
        from repro.bench_suite import random_design
        from repro.io import save_design, save_technology
        from repro.technology import Technology

        design = random_design("clitech", seed=17, num_cells=6, num_nets=12,
                               num_critical=1)
        dpath = tmp_path / "d.json"
        save_design(design, dpath)
        tpath = tmp_path / "t.json"
        save_technology(Technology.four_layer(), tpath)
        rc = main([
            "flow", "--design", str(dpath), "--flow", "overcell",
            "--tech", str(tpath),
        ])
        assert rc == 0
        assert "overcell" in capsys.readouterr().out


class TestIterateFlags:
    """``--iterate``, ``--max-iterations`` and ``--ordering-policy`` on
    dense-quick, which one-pass routing leaves at 94.0 %."""

    @pytest.fixture(scope="class")
    def dense_file(self, tmp_path_factory):
        from repro.bench_suite import dense_design
        from repro.io import save_design

        path = tmp_path_factory.mktemp("dense") / "dense.json"
        save_design(dense_design("quick"), path)
        return path

    def test_iterate_completes_dense_quick(self, dense_file, capsys):
        rc = main([
            "route", "--design", str(dense_file), "--iterate",
            "--ordering-policy", "congestion",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wl=67,268" in out and "completion=100.0%" in out
        assert "iterate: 1 pass(es), converged (policy congestion)" in out

    def test_one_pass_leaves_dense_quick_incomplete(self, dense_file, capsys):
        rc = main(["route", "--design", str(dense_file)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "wl=73,672" in out and "completion=94.0%" in out
        assert "iterate:" not in out

    def test_zero_iterations_is_one_pass(self, dense_file, capsys):
        rc = main([
            "route", "--design", str(dense_file), "--iterate",
            "--max-iterations", "0", "--ordering-policy", "congestion",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "wl=73,672" in out and "completion=94.0%" in out
        assert "iterate: 0 pass(es), budget exhausted (policy congestion)" in out

    def test_unknown_policy_is_usage_error(self, dense_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "route", "--design", str(dense_file), "--iterate",
                "--ordering-policy", "nope",
            ])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestPolicyTable:
    def test_every_policy_by_name(self):
        """The CLI and the serve protocol offer exactly the table's
        names."""
        import argparse
        import ast

        from repro.core.ordering import POLICIES
        from repro.serve.protocol import JobSpec, SpecError

        names = sorted(POLICIES)
        assert names == ["congestion", "feature", "longest-first"]
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        for command in ("flow", "route", "profile", "check", "report"):
            (choices,) = [
                a.choices for a in sub.choices[command]._actions
                if a.dest == "ordering_policy"
            ]
            assert list(choices) == names, command
        for name in names:
            spec = JobSpec.from_dict({"design": "ami33", "ordering_policy": name})
            assert spec.ordering_policy == name
        with pytest.raises(SpecError) as exc:
            JobSpec.from_dict({"design": "ami33", "ordering_policy": "nope"})
        listed = str(exc.value).split("(available: ", 1)[1].rstrip(")")
        assert ast.literal_eval(listed) == names

    def test_one_pass_flow_honours_the_policy(self, capsys):
        """``--ordering-policy`` orders one-pass routing too: ``feature``
        moves ami33 off the longest-first wl=106,396."""
        rc = main(["flow", "--suite", "ami33", "--ordering-policy", "feature"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wl=106,464" in out and "vias=936" in out
