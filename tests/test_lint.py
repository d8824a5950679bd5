"""The project-contract static analyzer (repro.lint).

Three test families:

* **Fixture pairs** — for every rule id, one miniature module that
  violates the contract and one that honours it, written under a
  ``src/repro/...`` layout in ``tmp_path`` so module-name-scoped rules
  resolve exactly as they do over the real tree.
* **Machinery** — pragma suppression (reasoned, reasonless, stale),
  rule selection, report shapes.
* **Self-lint** — the shipped tree must be CLEAN, with its pragmas
  (the only suppression mechanism) counted; the linter's own
  determinism is asserted by running it twice and comparing
  serialised reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    PRAGMA_RULE_ID,
    LintReport,
    LintViolation,
    Severity,
    all_rule_ids,
    lint_paths,
    rules_for_ids,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


# ----------------------------------------------------------------------
# Fixture projects
# ----------------------------------------------------------------------
def write_module(root: Path, dotted: str, source: str) -> Path:
    """Write ``source`` as ``<root>/src/<dotted path>.py``."""
    rel = Path("src", *dotted.split("."))
    path = root / rel.with_suffix(".py")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def run_lint(root: Path, **kwargs) -> LintReport:
    return lint_paths([root / "src"], root=root, **kwargs)


def rules_fired(report: LintReport) -> set[str]:
    return {v.rule for v in report.violations}


#: (rule id, violating source, clean source, module). Each pair is a
#: minimal program that trips exactly the targeted contract.
FIXTURES = [
    (
        "det.clock",
        "import time\n\ndef stamp():\n    return time.time()\n",
        "import time\n\ndef stamp():\n    return time.perf_counter()\n",
        "repro.core.fx_clock",
    ),
    (
        "det.random",
        "import random\n\ndef pick(xs):\n    return random.choice(xs)\n",
        "import random\n\ndef pick(xs, seed):\n"
        "    return random.Random(seed).choice(xs)\n",
        "repro.maze.fx_random",
    ),
    (
        "det.idkey",
        "def order(nets):\n    return sorted(nets, key=id)\n",
        "def order(nets):\n"
        "    return sorted(nets, key=lambda n: n.name)\n",
        "repro.dispatch.fx_idkey",
    ),
    (
        "det.setorder",
        "def walk(nets):\n    out = []\n"
        "    for n in {x.lower() for x in nets}:\n"
        "        out.append(n)\n    return out\n",
        "def walk(nets):\n    out = []\n"
        "    for n in sorted({x.lower() for x in nets}):\n"
        "        out.append(n)\n    return out\n",
        "repro.globalroute.fx_setorder",
    ),
    (
        "txn.commit",
        "def apply(grid, net, pts):\n"
        "    grid.commit_path(net, pts, [])\n",
        "def apply(grid, net, pts):\n"
        "    with grid.transaction():\n"
        "        grid.commit_path(net, pts, [])\n",
        "repro.core.fx_commit",
    ),
    (
        "txn.mutate",
        "def clobber(grid, net):\n    grid._h_owner[0, 0] = net\n",
        "def clobber(grid, net):\n    grid.occupy_h(0, 0, net)\n",
        "repro.core.fx_mutate",
    ),
    (
        "pool.payload",
        "def fan(executor, items):\n"
        "    return [executor.submit(lambda x: x, i) for i in items]\n",
        "def work(item):\n    return item\n\n"
        "def fan(executor, items):\n"
        "    return [executor.submit(work, i) for i in items]\n",
        "repro.dispatch.fx_payload",
    ),
    (
        "pool.default",
        "def route(net, seen=[]):\n    seen.append(net)\n"
        "    return seen\n",
        "def route(net, seen=None):\n"
        "    seen = [] if seen is None else seen\n"
        "    seen.append(net)\n    return seen\n",
        "repro.serve.fx_default",
    ),
    (
        "serve.lock",
        "import threading\n\nclass Queue:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.jobs = []\n"
        "    def push(self, job):\n"
        "        self.jobs.append(job)\n",
        "import threading\n\nclass Queue:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.jobs = []\n"
        "    def push(self, job):\n"
        "        with self._lock:\n"
        "            self.jobs.append(job)\n",
        "repro.serve.fx_lock",
    ),
]

PARAMS_OK = (
    "class FlowParams:\n"
    "    planes: int = 1\n"
    "    parallel: int = 0\n"
)
PROTOCOL_OK = (
    "DIGESTED_FIELDS = {'planes': 'planes'}\n"
    "DIGEST_EXCLUDED = frozenset({'parallel'})\n"
    "SERVER_DEFAULTED = frozenset()\n\n"
    "class JobSpec:\n"
    "    planes: int = 1\n"
    "    parallel: int = 0\n"
    "    def canonical(self):\n"
    "        return {'kind': 'job', 'planes': self.planes}\n"
)
#: FlowParams grows a field nobody classified.
PARAMS_BAD = PARAMS_OK + "    hotness: float = 1.0\n"


@pytest.mark.parametrize(
    "rule_id,bad,good,module",
    FIXTURES,
    ids=[f[0] for f in FIXTURES],
)
def test_rule_fires_on_violating_fixture(
    tmp_path, rule_id, bad, good, module
):
    write_module(tmp_path, module, bad)
    report = run_lint(tmp_path, select={rule_id})
    assert rule_id in rules_fired(report), report.render()


@pytest.mark.parametrize(
    "rule_id,bad,good,module",
    FIXTURES,
    ids=[f[0] for f in FIXTURES],
)
def test_rule_quiet_on_clean_fixture(
    tmp_path, rule_id, bad, good, module
):
    write_module(tmp_path, module, good)
    report = run_lint(tmp_path, select={rule_id})
    assert rule_id not in rules_fired(report), report.render()


def test_digest_fields_fires_on_unclassified_field(tmp_path):
    write_module(tmp_path, "repro.flow.params", PARAMS_BAD)
    write_module(tmp_path, "repro.serve.protocol", PROTOCOL_OK)
    report = run_lint(tmp_path, select={"digest.fields"})
    assert "digest.fields" in rules_fired(report)
    assert any("hotness" in v.message for v in report.violations)


def test_digest_fields_quiet_on_classified_fields(tmp_path):
    write_module(tmp_path, "repro.flow.params", PARAMS_OK)
    write_module(tmp_path, "repro.serve.protocol", PROTOCOL_OK)
    report = run_lint(tmp_path, select={"digest.fields"})
    assert report.violations == [], report.render()


def test_digest_fields_fires_on_stale_classification(tmp_path):
    write_module(tmp_path, "repro.flow.params", PARAMS_OK)
    protocol = PROTOCOL_OK.replace(
        "frozenset({'parallel'})",
        "frozenset({'parallel', 'retired_knob'})",
    )
    write_module(tmp_path, "repro.serve.protocol", protocol)
    report = run_lint(tmp_path, select={"digest.fields"})
    assert any("retired_knob" in v.message for v in report.violations)


def test_digest_fields_fires_on_uncanonical_jobspec_field(tmp_path):
    write_module(tmp_path, "repro.flow.params", PARAMS_OK)
    protocol = PROTOCOL_OK + "    stealth: bool = False\n"
    write_module(tmp_path, "repro.serve.protocol", protocol)
    report = run_lint(tmp_path, select={"digest.fields"})
    assert any("stealth" in v.message for v in report.violations)


def test_lint_pragma_fires_on_reasonless_pragma(tmp_path):
    write_module(
        tmp_path,
        "repro.core.fx_noreason",
        "import time\n\ndef stamp():\n"
        "    return time.time()  # repro: allow[det.clock]\n",
    )
    report = run_lint(tmp_path)
    fired = rules_fired(report)
    # The reasonless pragma suppresses nothing AND is itself reported.
    assert "det.clock" in fired
    assert PRAGMA_RULE_ID in fired
    assert report.suppressed == 0


def test_lint_pragma_quiet_on_reasoned_matching_pragma(tmp_path):
    write_module(
        tmp_path,
        "repro.core.fx_reason",
        "import time\n\ndef stamp():\n"
        "    return time.time()  # repro: allow[det.clock] ts is "
        "display-only, never a routing input\n",
    )
    report = run_lint(tmp_path)
    assert report.violations == [], report.render()
    assert report.suppressed == 1


# ----------------------------------------------------------------------
# Machinery: pragmas, selection, determinism
# ----------------------------------------------------------------------
def test_pragma_on_comment_line_above(tmp_path):
    write_module(
        tmp_path,
        "repro.core.fx_above",
        "import time\n\ndef stamp():\n"
        "    # repro: allow[det.clock] display-only timestamp\n"
        "    return time.time()\n",
    )
    report = run_lint(tmp_path)
    assert report.violations == []
    assert report.suppressed == 1


def test_stale_pragma_reported_on_full_runs_only(tmp_path):
    write_module(
        tmp_path,
        "repro.core.fx_stale",
        "def quiet():  # repro: allow[det.clock] nothing here anymore\n"
        "    return 0\n",
    )
    full = run_lint(tmp_path)
    assert rules_fired(full) == {PRAGMA_RULE_ID}
    assert "stale" in full.violations[0].message
    # A filtered run must not flag staleness: the suppressed rule may
    # simply not have been selected.
    partial = run_lint(tmp_path, select={"det.random"})
    assert partial.violations == []


def test_pragma_in_docstring_is_inert(tmp_path):
    write_module(
        tmp_path,
        "repro.core.fx_doc",
        '"""Docs quoting the syntax: # repro: allow[det.clock] why."""\n'
        "import time\n\ndef stamp():\n    return time.time()\n",
    )
    report = run_lint(tmp_path)
    fired = rules_fired(report)
    assert "det.clock" in fired  # the string did not suppress it
    assert PRAGMA_RULE_ID not in fired  # ...and is not itself a pragma


def test_rule_selection_by_group_and_id():
    det = rules_for_ids({"det"})
    assert {r.rule_id for r in det} == {
        "det.clock",
        "det.idkey",
        "det.random",
        "det.setorder",
    }
    one = rules_for_ids({"txn.commit"})
    assert [r.rule_id for r in one] == ["txn.commit"]
    with pytest.raises(ValueError, match="unknown rule"):
        rules_for_ids({"det.clcok"})


def test_rule_catalogue_shape():
    ids = all_rule_ids()
    assert len(set(ids)) == len(ids)
    assert PRAGMA_RULE_ID in ids
    # ISSUE acceptance: at least five distinct rule ids in the engine.
    assert len([r for r in ALL_RULES if r.rule_id]) >= 5
    for rule in ALL_RULES:
        assert rule.rule_id and rule.contract


def test_report_serialisation_and_severity_gate(tmp_path):
    write_module(
        tmp_path,
        "repro.core.fx_json",
        "import time\n\ndef stamp():\n    return time.time()\n",
    )
    report = run_lint(tmp_path)
    doc = report.to_dict()
    assert doc["format"] == "repro-lint-report"
    assert doc["ok"] is False
    assert doc["counts"]["det.clock"] == 1
    v = LintViolation(
        rule="x.y",
        path="p.py",
        line=3,
        col=1,
        message="m",
        severity=Severity.WARNING,
    )
    warn_only = LintReport(violations=[v])
    assert warn_only.ok  # warnings do not fail the default gate


def test_lint_runs_are_deterministic(tmp_path):
    for rule_id, bad, _good, module in FIXTURES:
        write_module(tmp_path, module + "_det", bad)
    one = run_lint(tmp_path).to_dict()
    two = run_lint(tmp_path).to_dict()
    assert one == two


def test_syntax_error_is_reported_not_raised(tmp_path):
    write_module(tmp_path, "repro.core.fx_broken", "def broken(:\n")
    report = run_lint(tmp_path)
    assert rules_fired(report) == {"lint.parse"}
    assert not report.ok


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def run_cli(*argv: str, cwd: Path | None = None):
    env_src = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


def test_cli_strict_clean_exit_zero(tmp_path):
    out = run_cli("--strict", "--json", str(tmp_path / "r.json"))
    assert out.returncode == 0, out.stdout + out.stderr
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["format"] == "repro-lint-report"
    assert doc["ok"] is True


def test_cli_nonzero_on_violation_and_json_payload(tmp_path):
    bad = write_module(
        tmp_path,
        "repro.core.fx_cli",
        "import time\n\ndef stamp():\n    return time.time()\n",
    )
    report_path = tmp_path / "report.json"
    out = run_cli(
        str(bad),
        "--root",
        str(tmp_path),
        "--json",
        str(report_path),
    )
    assert out.returncode == 1
    doc = json.loads(report_path.read_text())
    assert doc["counts"] == {"det.clock": 1}
    assert doc["violations"][0]["rule"] == "det.clock"


def test_cli_unknown_rule_exits_two(tmp_path):
    out = run_cli("--rule", "no.such")
    assert out.returncode == 2
    assert "unknown rule" in out.stderr


def test_cli_list_rules():
    out = run_cli("--list-rules")
    assert out.returncode == 0
    for rule in ALL_RULES:
        assert rule.rule_id in out.stdout


# ----------------------------------------------------------------------
# Self-lint: the shipped tree honours its own contracts
# ----------------------------------------------------------------------
def test_shipped_tree_is_clean():
    report = lint_paths([SRC_REPRO], root=REPO_ROOT)
    assert report.violations == [], report.render()
    assert report.files_scanned > 100
    assert len(report.rules_run) >= 5
    # Pragmas are the tree's only suppression mechanism: a new one
    # must show up here as a recorded change.
    assert report.suppressed == 8


def test_lint_emits_instrument_counters():
    from repro import instrument
    from repro.instrument.names import LINT_RUNS, LINT_VIOLATIONS

    with instrument.collecting() as collector:
        lint_paths([SRC_REPRO / "lint"], root=REPO_ROOT)
    assert collector.counters.get(LINT_RUNS) == 1
    assert LINT_VIOLATIONS in collector.counters
