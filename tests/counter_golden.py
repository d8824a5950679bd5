"""The deterministic-counter golden of the published designs.

Every counter a flow reports (``FlowResult.profile["counters"]``) counts
work the router did — nodes expanded, candidates priced, cells touched —
so it is the same on every machine.  ``tests/golden/counters.json`` pins
them for the five published designs under routebench's flow parameters,
and ``tests/test_counter_golden.py`` fails on any drift.  A change that
alters the router's work on purpose regenerates the file and pastes the
drift table the test prints::

    PYTHONPATH=src python tests/counter_golden.py

Gauges (memory) and wall times stay out of the file: wall time is
routebench's job.
"""

from __future__ import annotations

import functools
import json
import sys
from collections.abc import Callable
from pathlib import Path

from repro import instrument
from repro.bench_suite import ami33_like, dense_design, ex3_like, wide_design, xerox_like
from repro.flow import FlowParams, FlowResult, overcell_flow
from repro.netlist import Design
from repro.technology import technology_from_any

GOLDEN = Path(__file__).parent / "golden" / "counters.json"
STACKUP = GOLDEN.with_name("stackup_wide.json")


def _wide_params() -> FlowParams:
    tech = technology_from_any(json.loads(STACKUP.read_text()))
    return FlowParams(technology=tech, planes=2, objective="wire")


#: Published design -> (design factory, flow parameters factory), as the
#: routebench workloads route them.
PUBLISHED: dict[str, tuple[Callable[[], Design], Callable[[], FlowParams]]] = {
    "ami33": (ami33_like, FlowParams),
    "xerox": (xerox_like, FlowParams),
    "ex3": (ex3_like, FlowParams),
    "dense-quick": (
        functools.partial(dense_design, "quick"),
        lambda: FlowParams(iterate=True, ordering_policy="congestion"),
    ),
    "wide-quick": (functools.partial(wide_design, "quick"), _wide_params),
}


@functools.cache
def routed(name: str) -> FlowResult:
    """One profiled flow of a published design, shared within a process."""
    make_design, make_params = PUBLISHED[name]
    with instrument.collecting():
        return overcell_flow(make_design(), make_params())


def counters(name: str) -> dict[str, int]:
    return dict(routed(name).profile["counters"])


def load_golden() -> dict[str, dict[str, int]]:
    golden: dict[str, dict[str, int]] = json.loads(GOLDEN.read_text())
    return golden


def drift_table(golden: dict[str, int], now: dict[str, int]) -> str:
    """Counter, golden, now and delta per counter; drifted rows starred."""
    lines = [f"  {'counter':<24} {'golden':>12} {'now':>12} {'delta':>10}"]
    for name in sorted(golden.keys() | now.keys()):
        old, new = golden.get(name), now.get(name)
        delta = "" if old is None or new is None else f"{new - old:+d}"
        mark = " " if old == new else "*"
        lines.append(
            f"{mark} {name:<24} {old if old is not None else '-':>12} "
            f"{new if new is not None else '-':>12} {delta:>10}"
        )
    return "\n".join(lines)


def main() -> None:
    previous = load_golden() if GOLDEN.exists() else {}
    fresh = {name: counters(name) for name in PUBLISHED}
    GOLDEN.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    for name, now in fresh.items():
        print(f"{name}:\n{drift_table(previous.get(name, {}), now)}")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
