"""The scale tier: the over-cell flow on a design far larger than the suites.

Routes the ``scale-quick`` design (thousands of cells over a grid an
order of magnitude larger than the paper suites — see
``repro.bench_suite.SCALE_TIERS`` and docs/SCALING.md) through the
over-cell flow, asserting full completion and a CLEAN report from the
independent checker (``repro.check``, strict mode).

Exports ``benchmarks/artifacts/BENCH_scale.json``.  With ``--quick``
only the quick tier runs; without it (the CI scale job) the ``full``
tier runs too, at ~4x the area, and its process peak must stay below
:data:`FULL_PEAK_RSS_BYTES`.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import instrument
from repro.bench_suite import scale_design, scale_profile
from repro.check import check_flow
from repro.flow import FlowParams, overcell_flow

from conftest import print_experiment

ARTIFACTS = os.path.join(os.path.dirname(__file__), "artifacts")

#: The full tier's ceiling on the process peak (``ru_maxrss``, the
#: quick tier's run included).  The grid holds 16 MB; the MBFS's level
#: temporaries on the largest windows once took the peak to 319 MiB
#: (docs/SCALING.md), and it reads about 131 MiB since the search
#: counts the level it ends on.
FULL_PEAK_RSS_BYTES = 200 * 2**20


def _routed_run(tier: str) -> tuple[dict, object]:
    design = scale_design(tier)
    started = time.perf_counter()
    with instrument.collecting():
        result = overcell_flow(design, FlowParams())
    wall_s = time.perf_counter() - started
    gauges = result.profile["gauges"]
    record = {
        "wall_s": round(wall_s, 2),
        "completion": result.completion,
        "wire_length": result.wire_length,
        "via_count": result.via_count,
        "grid_bytes": int(gauges["mem.grid_bytes"]),
        "peak_rss_bytes": int(gauges["mem.peak_rss_bytes"]),
    }
    return record, result


def _design_doc(tier: str) -> dict:
    profile = scale_profile(tier)
    return {
        "name": profile.name,
        "cells": profile.num_cells,
        "nets": profile.num_regular_nets + len(profile.critical_pin_counts),
    }


def _line(name: str, run: dict) -> str:
    return (
        f"{name:6s} wall={run['wall_s']:7.2f}s  "
        f"mem={run['grid_bytes']:>12,}B  "
        f"peak={run['peak_rss_bytes'] / 2**20:6.1f}MiB  "
        f"completion={run['completion']:.3f}"
    )


def test_scale_tier(request: pytest.FixtureRequest) -> None:
    quick = request.config.getoption("--quick")

    run, result = _routed_run("quick")
    assert result.completion == 1.0

    # Independent verification (the same engine `repro check --strict`
    # runs).
    report = check_flow(result)
    assert not report.violations, report.render(limit=20)

    doc = {
        "format": "repro-bench-scale",
        "tier": "quick",
        "design": _design_doc("quick"),
        "check_clean": not report.violations,
        "run": run,
    }
    lines = [_line("quick", run)]

    if not quick:
        full, _ = _routed_run("full")
        doc["full"] = {"design": _design_doc("full"), "run": full}
        lines.append(_line("full", full))

    os.makedirs(ARTIFACTS, exist_ok=True)
    out = os.path.join(ARTIFACTS, "BENCH_scale.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines.append(f"(exported {out})")
    print_experiment(
        f"Scale tier - {scale_profile('quick').name}", "\n".join(lines)
    )
    if not quick:
        peak = doc["full"]["run"]["peak_rss_bytes"]
        assert peak < FULL_PEAK_RSS_BYTES, f"full tier peaked at {peak / 2**20:.1f} MiB"
