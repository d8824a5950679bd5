"""The iterate tier: negotiated congestion vs one-pass routing.

Runs the over-cell flow on the dense tier (``repro.bench_suite.
DENSE_TIERS`` — small over-cell areas under heavy, low-locality demand,
tuned to sit just past the one-pass routability boundary) and the
``scale-quick`` tier, once per ordering policy with the
iterative driver on, asserting the acceptance property of
docs/ITERATION.md:

* the dense tier genuinely **fails** one-pass routing (otherwise the
  experiment proves nothing);
* with ``iterate`` on, at least one policy routes it to 100 %
  completion, and no policy ends worse than one-pass;
* the already-routable scale tier converges at iteration zero — the
  loop costs nothing when there is nothing to negotiate.

Exports ``benchmarks/artifacts/BENCH_iterate.json`` with completion
rate, wirelength, pass count and convergence per (tier, policy).  With
``--quick`` (the CI bench-iterate job) the dense ``full`` tier is
skipped.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench_suite import dense_design, dense_profile, scale_design
from repro.flow import FlowParams, overcell_flow
from repro.core.ordering import POLICIES

from conftest import print_experiment

ARTIFACTS = os.path.join(os.path.dirname(__file__), "artifacts")


def _iterated_run(design, policy: str) -> dict:
    started = time.perf_counter()
    result = overcell_flow(
        design,
        FlowParams(iterate=True, max_iterations=8, ordering_policy=policy),
    )
    wall_s = time.perf_counter() - started
    report = result.notes["iterate"]
    return {
        "policy": policy,
        "wall_s": round(wall_s, 2),
        "completion": result.completion,
        "wire_length": result.wire_length,
        "via_count": result.via_count,
        "iterations": report["iterations"],
        "converged": report["converged"],
        "stalled": report["stalled"],
        "one_pass_completion": report["records"][0]["completion"],
    }


def _tier_runs(make_design) -> tuple[dict, list[dict]]:
    one_pass = overcell_flow(make_design(), FlowParams())
    baseline = {
        "completion": one_pass.completion,
        "wire_length": one_pass.wire_length,
        "via_count": one_pass.via_count,
    }
    runs = [_iterated_run(make_design(), p) for p in sorted(POLICIES)]
    return baseline, runs


def _render(tier: str, baseline: dict, runs: list[dict]) -> list[str]:
    lines = [
        f"{tier:12s} {'one-pass':14s} completion={baseline['completion']:.3f}  "
        f"wl={baseline['wire_length']:>9,}"
    ]
    for run in runs:
        status = (
            "converged"
            if run["converged"]
            else ("stalled" if run["stalled"] else "budget")
        )
        lines.append(
            f"{tier:12s} {run['policy']:14s} completion={run['completion']:.3f}  "
            f"wl={run['wire_length']:>9,}  passes={run['iterations']}  "
            f"{status}  wall={run['wall_s']:6.2f}s"
        )
    return lines


def test_iterate_tiers(request: pytest.FixtureRequest) -> None:
    quick = request.config.getoption("--quick")

    # -- dense tier: the design one-pass routing cannot finish --------
    dense_base, dense_runs = _tier_runs(lambda: dense_design("quick"))
    assert dense_base["completion"] < 1.0, (
        "dense-quick must fail one-pass routing; retune DENSE_TIERS"
    )
    assert any(run["converged"] for run in dense_runs), (
        "no ordering policy recovered the dense tier"
    )
    for run in dense_runs:
        # Commit-if-better: iteration can never end worse than one pass.
        assert run["completion"] >= run["one_pass_completion"], run["policy"]

    # -- scale tier: already routable, the loop must cost nothing -----
    scale_base, scale_runs = _tier_runs(lambda: scale_design("quick"))
    assert scale_base["completion"] == 1.0
    for run in scale_runs:
        assert run["completion"] == 1.0, run["policy"]
        assert run["converged"] and run["iterations"] == 0, run["policy"]

    profile = dense_profile("quick")
    doc = {
        "format": "repro-bench-iterate",
        "policies": sorted(POLICIES),
        "tiers": {
            "dense-quick": {
                "design": {
                    "name": profile.name,
                    "cells": profile.num_cells,
                    "nets": profile.num_regular_nets
                    + len(profile.critical_pin_counts),
                },
                "one_pass": dense_base,
                "runs": dense_runs,
            },
            "scale-quick": {
                "one_pass": scale_base,
                "runs": scale_runs,
            },
        },
    }
    lines = _render("dense-quick", dense_base, dense_runs)
    lines += _render("scale-quick", scale_base, scale_runs)

    if not quick:
        full_base, full_runs = _tier_runs(lambda: dense_design("full"))
        assert full_base["completion"] < 1.0
        for run in full_runs:
            assert run["completion"] >= run["one_pass_completion"]
        doc["tiers"]["dense-full"] = {
            "one_pass": full_base,
            "runs": full_runs,
        }
        lines += _render("dense-full", full_base, full_runs)

    os.makedirs(ARTIFACTS, exist_ok=True)
    out = os.path.join(ARTIFACTS, "BENCH_iterate.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines.append(f"(exported {out})")
    print_experiment(
        "Iterate tier - negotiated congestion vs one-pass routing",
        "\n".join(lines),
    )
