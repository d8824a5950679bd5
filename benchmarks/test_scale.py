"""The scale tier: sparse vs dense occupancy backends at size.

Routes the ``scale-quick`` design (thousands of cells over a grid an
order of magnitude larger than the paper suites — see
``repro.bench_suite.SCALE_TIERS`` and docs/SCALING.md) through the
over-cell flow on both backends, asserting:

* backend parity — identical wire length, via count and completion on
  dense and sparse;
* the sparse memory win — the grid's dense-array footprint is at
  least ``MIN_MEMORY_RATIO``x the sparse backend's allocated bytes;
* verification — the sparse run is CLEAN under the independent
  checker (``repro.check``), strict mode.

Exports ``benchmarks/artifacts/BENCH_scale.json``.  With ``--quick``
(the CI scale job) only the quick tier runs; without it the ``full``
tier adds a sparse leg at ~4x the area.

The sparse run executes *before* the dense one: ``ru_maxrss`` is
process-wide and monotonic, so only the first run's peak RSS is
unpolluted by earlier allocations.  The backend-level gauges
(``mem.grid_bytes`` vs ``mem.grid_dense_equiv_bytes``) are per-run
exact either way and carry the ratio assertion.
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

#: The acceptance bar: dense-array footprint >= 10x sparse allocation.
MIN_MEMORY_RATIO = 10.0


def _routed_run(tier: str, params: FlowParams) -> tuple[dict, object]:
    design = scale_design(tier)
    started = time.perf_counter()
    with instrument.collecting():
        result = overcell_flow(design, params)
    wall_s = time.perf_counter() - started
    gauges = result.profile["gauges"]
    grid_bytes = gauges["mem.grid_bytes"]
    dense_equiv = gauges["mem.grid_dense_equiv_bytes"]
    record = {
        "backend": params.backend,
        "wall_s": round(wall_s, 2),
        "completion": result.completion,
        "wire_length": result.wire_length,
        "via_count": result.via_count,
        "grid_bytes": int(grid_bytes),
        "grid_dense_equiv_bytes": int(dense_equiv),
        "memory_ratio": round(dense_equiv / grid_bytes, 2),
        "peak_rss_bytes": int(gauges["mem.peak_rss_bytes"]),
    }
    return record, result


def test_scale_backends(request: pytest.FixtureRequest) -> None:
    quick = request.config.getoption("--quick")
    profile = scale_profile("quick")

    # Sparse leg first (see module docstring for the RSS caveat).
    sparse, sparse_result = _routed_run("quick", FlowParams(backend="sparse"))
    dense, dense_result = _routed_run("quick", FlowParams())

    # Backend parity: storage engines must never change the answer.
    assert sparse_result.wire_length == dense_result.wire_length
    assert sparse_result.via_count == dense_result.via_count
    assert sparse_result.completion == dense_result.completion
    assert dense_result.completion == 1.0

    # The memory win the sparse backend exists for.
    assert sparse["memory_ratio"] >= MIN_MEMORY_RATIO, (
        f"dense footprint only {sparse['memory_ratio']}x the sparse "
        f"allocation (need >= {MIN_MEMORY_RATIO}x)"
    )

    # Independent verification of the sparse run (the same engine
    # `repro check --strict` runs).
    report = check_flow(sparse_result)
    assert not report.violations, report.render(limit=20)

    doc = {
        "format": "repro-bench-scale",
        "tier": "quick",
        "design": {
            "name": profile.name,
            "cells": profile.num_cells,
            "nets": profile.num_regular_nets + len(profile.critical_pin_counts),
        },
        "min_memory_ratio": MIN_MEMORY_RATIO,
        "check_clean": not report.violations,
        "runs": {"sparse": sparse, "dense": dense},
    }

    lines = [
        f"{name:12s} wall={run['wall_s']:7.2f}s  "
        f"mem={run['grid_bytes']:>12,}B  "
        f"dense-equiv={run['grid_dense_equiv_bytes']:>12,}B  "
        f"ratio={run['memory_ratio']:5.2f}x"
        for name, run in doc["runs"].items()
    ]

    if not quick:
        full_profile = scale_profile("full")
        full, full_result = _routed_run("full", FlowParams(backend="sparse"))
        assert full["memory_ratio"] >= MIN_MEMORY_RATIO
        doc["full"] = {
            "design": {
                "name": full_profile.name,
                "cells": full_profile.num_cells,
                "nets": full_profile.num_regular_nets
                + len(full_profile.critical_pin_counts),
            },
            "run": full,
        }
        lines.append(
            f"{'full/sparse':12s} wall={full['wall_s']:7.2f}s  "
            f"mem={full['grid_bytes']:>12,}B  "
            f"dense-equiv={full['grid_dense_equiv_bytes']:>12,}B  "
            f"ratio={full['memory_ratio']:5.2f}x  "
            f"completion={full['completion']:.3f}"
        )

    os.makedirs(ARTIFACTS, exist_ok=True)
    out = os.path.join(ARTIFACTS, "BENCH_scale.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines.append(f"(exported {out})")
    print_experiment(
        f"Scale tier - {profile.name}: sparse vs dense backends",
        "\n".join(lines),
    )
