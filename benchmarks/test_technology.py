"""The technology tier: width classes and the via-minimization mode.

Routes the wide-net tier (``repro.bench_suite.WIDE_TIERS`` — designs
carrying clock and power nets that claim multi-track footprints) under
the golden width-spacing stackup (``tests/golden/stackup_wide.json``)
with both level B objectives, asserting the acceptance properties of
docs/TECHNOLOGY.md:

* the quick tier routes to completion under the default wire
  objective — wide footprints and guard spacing do not break
  routability on a well-sized design.  The full tier is deliberately
  dense enough that a handful of terminals get pinched inside
  wide-net claims (the best-effort semantics of docs/TECHNOLOGY.md),
  so it holds a completion floor instead, with the pinched count
  recorded per run;
* ``objective="vias"`` spends measurably fewer level B vias than the
  wire objective on the nets both objectives complete.  Repricing
  altitude concentrates nets on the low planes, which on a saturated
  tier can cost a few completions — each tier bounds that deficit
  relative to its own wire run (``VIAS_COMPLETION_TOLERANCE``) and
  makes the via comparison over the common complete-net set so failed
  nets never flatter it;
* the run under the data-driven stackup passes the full independent
  verification, including the width-dependent spacing DRC.

Exports ``benchmarks/artifacts/BENCH_technology.json`` with via count
and wirelength per (tier, objective).  The CI bench-technology job runs
both tiers; with ``--quick`` the ``full`` tier is skipped.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench_suite import wide_design, wide_profile
from repro.check import check_flow
from repro.flow import FlowParams, overcell_flow
from repro.technology import technology_from_any

from conftest import print_experiment

ARTIFACTS = os.path.join(os.path.dirname(__file__), "artifacts")
GOLDEN = os.path.join(
    os.path.dirname(__file__), os.pardir, "tests", "golden", "stackup_wide.json"
)

# Per-tier wire-objective completion expectations.  The quick tier is
# sized so wide footprints route fully.  The full tier packs enough
# pins that a few terminals land inside wide-net claims and are
# pinched (docs/TECHNOLOGY.md best-effort semantics) — its floor
# tolerates that known deficit while still catching real routability
# regressions.
WIRE_COMPLETION_FLOOR = {"wide-quick": 1.0, "wide-full": 0.90}

# The vias objective trades completion for via count on a saturated
# tier (docs/TECHNOLOGY.md): pricing altitude pushes nets down to
# plane 0, and the nets the wire objective would have lifted upward
# can run out of room there.  Bounded relative to the same tier's
# wire run, which already accounts for its pinched terminals.
VIAS_COMPLETION_TOLERANCE = 0.08


def _golden_technology():
    with open(GOLDEN) as fh:
        return technology_from_any(json.load(fh))


def _run(tier: str, objective: str) -> dict:
    started = time.perf_counter()
    result = overcell_flow(
        wide_design(tier),
        FlowParams(technology=_golden_technology(), planes=2, objective=objective),
    )
    wall_s = time.perf_counter() - started
    levelb = result.levelb
    pinched = sum(
        len(levelb.tig.pinched_terminals(r.net_id)) for r in levelb.routed
    )
    return {
        "objective": objective,
        "wall_s": round(wall_s, 2),
        "completion": result.completion,
        "wire_length": result.wire_length,
        "via_count": result.via_count,
        "level_b_vias": result.notes["level_b_vias"],
        "pinched_terminals": pinched,
        "_result": result,
    }


def _tier_runs(tier: str) -> dict[str, dict]:
    return {obj: _run(tier, obj) for obj in ("wire", "vias")}


def _common_net_vias(runs: dict[str, dict]) -> dict[str, int]:
    """Level B vias per objective, over nets complete under *both*.

    A net the vias objective failed contributes zero vias, which would
    flatter a raw total; restricting the sum to the common complete-net
    set makes "fewer vias" a statement about identical routed work.
    """
    per_net = {
        obj: {r.net.name: r.via_count for r in run["_result"].levelb.routed if r.complete}
        for obj, run in runs.items()
    }
    common = set.intersection(*(set(nets) for nets in per_net.values()))
    return {obj: sum(nets[name] for name in common) for obj, nets in per_net.items()}


def _assert_tier(tier: str, runs: dict[str, dict]) -> None:
    wire, vias = runs["wire"], runs["vias"]
    floor = WIRE_COMPLETION_FLOOR[tier]
    assert wire["completion"] >= floor, (
        f"{tier}: wire objective completion {wire['completion']:.4f} fell "
        f"below the tier floor {floor}"
    )
    assert vias["completion"] >= wire["completion"] - VIAS_COMPLETION_TOLERANCE, (
        f"{tier}: objective='vias' completion {vias['completion']:.4f} fell "
        f"more than {VIAS_COMPLETION_TOLERANCE} below the wire run's "
        f"{wire['completion']:.4f}"
    )
    common = _common_net_vias(runs)
    for run in runs.values():
        run["common_net_vias"] = common[run["objective"]]
    assert common["vias"] < common["wire"], (
        f"{tier}: objective='vias' must measurably reduce level B vias on "
        f"the nets both objectives complete "
        f"(wire={common['wire']}, vias={common['vias']})"
    )
    # The whole point of data-driven rules: the run verifies clean,
    # width-dependent spacing DRC included.
    report = check_flow(wire.pop("_result"))
    assert report.ok, report.summary()
    vias.pop("_result")


def _render(tier: str, runs: dict[str, dict]) -> list[str]:
    return [
        f"{tier:12s} {run['objective']:5s} completion={run['completion']:.3f}  "
        f"wl={run['wire_length']:>9,}  level_b_vias={run['level_b_vias']:>5,}  "
        f"common_net_vias={run['common_net_vias']:>5,}  "
        f"pinched={run['pinched_terminals']}  wall={run['wall_s']:6.2f}s"
        for run in runs.values()
    ]


def _design_stats(tier: str) -> dict:
    profile = wide_profile(tier)
    return {
        "name": profile.name,
        "cells": profile.num_cells,
        "signal_nets": profile.num_regular_nets
        + len(profile.critical_pin_counts),
        "clock_nets": profile.clock_nets,
        "power_nets": profile.power_nets,
    }


def test_technology_tiers(request: pytest.FixtureRequest) -> None:
    quick = request.config.getoption("--quick")

    quick_runs = _tier_runs("quick")
    _assert_tier("wide-quick", quick_runs)

    doc = {
        "format": "repro-bench-technology",
        "stackup": os.path.basename(GOLDEN),
        "objectives": ["wire", "vias"],
        "tiers": {
            "wide-quick": {"design": _design_stats("quick"), "runs": quick_runs},
        },
    }
    lines = _render("wide-quick", quick_runs)

    if not quick:
        full_runs = _tier_runs("full")
        _assert_tier("wide-full", full_runs)
        doc["tiers"]["wide-full"] = {
            "design": _design_stats("full"),
            "runs": full_runs,
        }
        lines += _render("wide-full", full_runs)

    os.makedirs(ARTIFACTS, exist_ok=True)
    out = os.path.join(ARTIFACTS, "BENCH_technology.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines.append(f"(exported {out})")
    print_experiment(
        "Technology tier - width classes and the via objective",
        "\n".join(lines),
    )
