"""The three flow workloads: ``suites``, ``congested`` and ``wide``.

Each workload routes a fixed list of published designs through
``overcell_flow`` with the workload's parameters, one after another in
this process, and reports the end-to-end metrics of
:mod:`run`.  The seed decides the order the designs run in; with
``redraw`` it also re-draws every design from its ``SuiteProfile``
recipe (``dataclasses.replace(profile, seed=design_seed(seed, name))``).
Redrawn designs are not the default because their cost is not
comparable across seeds: redrawn dense designs mostly fall back inside
the one-pass routability boundary, and one redrawn wide-full design
took ten times as long as the published one.
"""

from __future__ import annotations

import dataclasses
import json
import random
import statistics
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro.technology
from repro import instrument
from repro.bench_suite import (
    DENSE_TIERS,
    WIDE_TIERS,
    SuiteProfile,
    design_seed,
    generator,
    make_design,
)
from repro.flow import FlowParams, overcell_flow
from repro.netlist import Design

import oracle
import stats
from tracer import Tracer, layer_metrics

STACKUP = Path(__file__).with_name("stackup_wide.json")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: workload -> (published design names, the flow parameters of the
#: workload given the ingested technology).
WORKLOADS: dict[str, tuple[tuple[str, ...], Callable[[Any], FlowParams]]] = {
    "suites": (("ami33", "xerox", "ex3"), lambda tech: FlowParams()),
    "congested": (
        ("dense-quick", "dense-full"),
        lambda tech: FlowParams(iterate=True, ordering_policy="congestion"),
    ),
    "wide": (
        ("wide-quick", "wide-full"),
        lambda tech: FlowParams(technology=tech, planes=2, objective="wire"),
    ),
}


def profile_of(name: str) -> SuiteProfile:
    """The ``SuiteProfile`` recipe of a published design."""
    for profile in (*DENSE_TIERS.values(), *WIDE_TIERS.values()):
        if profile.name == name:
            return profile
    # The paper suites build their recipe inside their factory.
    captured: list[SuiteProfile] = []
    original = generator.make_design
    generator.make_design = captured.append  # type: ignore[assignment]
    try:
        getattr(generator, f"{name}_like")()
    finally:
        generator.make_design = original
    return captured[0]


@dataclass
class Inputs:
    """One generated set of a workload's designs, in run order."""

    designs: list[tuple[str, Design, FlowParams]]
    published: bool


def make_inputs(workload: str, seed: int, redraw: bool) -> Inputs:
    """Generate the workload's designs and ingest its technology."""
    names, params = WORKLOADS[workload]
    order = list(names)
    random.Random(seed).shuffle(order)
    tech = None
    if workload == "wide":
        tech = repro.technology.technology_from_any(json.loads(STACKUP.read_text()))
    designs = []
    for name in order:
        profile = profile_of(name)
        if redraw:
            profile = dataclasses.replace(profile, seed=design_seed(seed, name))
        designs.append((name, make_design(profile), params(tech)))
    return Inputs(designs, published=not redraw)


@dataclass
class FlowRun:
    name: str
    result: Any
    seconds: float  # calibrated
    clock: stats.Calibrated


def run_pass(
    inputs: Inputs, per_flow: Callable[[], Any] = nullcontext
) -> list[FlowRun]:
    """Route every design once; only the flow call itself is timed.

    ``per_flow`` returns a context manager entered around each flow
    (the traced pass collects each flow's counters in it).
    """
    runs = []
    for name, design, params in inputs.designs:
        with per_flow(), stats.Calibrated() as clock:
            result = overcell_flow(design, params)
        runs.append(FlowRun(name, result, clock.seconds, clock))
    return runs


def _verify(outcome: stats.Outcome, runs: list[FlowRun], published: bool) -> None:
    """Oracle every run; a run with any problem counts as one failure."""
    for run in runs:
        problems = oracle.verify_flow(run.name, run.result, published)
        outcome.attempted += 1
        outcome.failed += bool(problems)
        outcome.problems.extend(problems)


def _setup_s(workload: str, seed: int, redraw: bool) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        with stats.Calibrated() as clock:
            make_inputs(workload, seed, redraw)
        times.append(clock.seconds)
    return statistics.median(times)


def _quality(runs: list[FlowRun]) -> stats.Metrics:
    results = [r.result for r in runs]
    return {
        "completion": (statistics.fmean(r.completion for r in results), "ratio"),
        "wire_length": (sum(r.wire_length for r in results), "lambda"),
        "via_count": (sum(r.via_count for r in results), "count"),
        "layout_area": (sum(r.layout_area for r in results), "lambda2"),
    }


def detail(runs: list[FlowRun]) -> dict[str, Any]:
    """Per-design digests and triples, for ``--out`` files and compare."""
    return {
        r.name: {
            "digest": oracle.geometry_digest(r.result),
            "wire_length": r.result.wire_length,
            "via_count": r.result.via_count,
            "completion": r.result.completion,
            "seconds": r.seconds,
            "wall_s": r.clock.wall_s,
        }
        for r in runs
    }


def run(
    workload: str, seed: int, seconds: float, import_s: float, redraw: bool
) -> stats.Outcome:
    """The untraced run: each design's latency is the median of its runs.

    A design is routed again until it has been timed for its share of
    ``seconds`` (at least once), so a one-second design is timed several
    times while a fifteen-second one runs once.  ``flow_wall_s`` is the
    sum of the designs' latencies: every flow of the workload once.
    """
    outcome = stats.Outcome({}, attempted=0)
    setup_s = import_s + _setup_s(workload, seed, redraw)
    inputs = make_inputs(workload, seed, redraw)
    share = seconds / len(inputs.designs)
    latencies: list[float] = []
    last: list[FlowRun] = []
    for design in inputs.designs:
        runs: list[FlowRun] = []
        while sum(r.seconds for r in runs) < share or not runs:
            runs += run_pass(Inputs([design], inputs.published))
        _verify(outcome, runs, inputs.published)
        latencies.append(statistics.median(r.seconds for r in runs))
        last.append(runs[-1])
    wall_s = sum(latencies)
    nets = sum(r.result.levelb.nets_attempted for r in last)
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "flow_wall_s": (wall_s, "s"),
        "nets_per_s": (nets / wall_s, "1/s"),
        "requests_per_s": (len(last) / wall_s, "1/s"),
        "latency_p50_s": (stats.percentile(latencies, 0.50), "s"),
        "latency_p95_s": (stats.percentile(latencies, 0.95), "s"),
        # Every flow run routes from scratch.
        "routed_p50_s": (stats.percentile(latencies, 0.50), "s"),
        **_quality(last),
        "peak_rss_mb": (stats.peak_rss_mb(), "MB"),
    }
    outcome.detail = detail(last)
    return outcome


def run_traced(workload: str, seed: int, redraw: bool) -> stats.Outcome:
    """One untraced pass, then one traced pass of the same inputs.

    The traced pass regenerates its inputs under the tracer so
    technology ingestion is attributed, and collects each flow's
    program counters in its own ``instrument.collecting()`` block.
    """
    outcome = stats.Outcome({}, attempted=0)
    plain = run_pass(make_inputs(workload, seed, redraw))
    _verify(outcome, plain, not redraw)
    tracer = Tracer()
    grid_bytes = 0.0

    @contextmanager
    def collect() -> Iterator[None]:
        nonlocal grid_bytes
        with instrument.collecting() as col:
            yield
        for name, n in col.counters.items():
            outcome.counters[name] = outcome.counters.get(name, 0) + n
        grid_bytes += col.gauges.get("mem.grid_bytes", 0.0)

    with tracer.installed():
        inputs = make_inputs(workload, seed, redraw)
        traced = run_pass(inputs, per_flow=collect)
    _verify(outcome, traced, inputs.published)
    plain_digests = {r.name: oracle.geometry_digest(r.result) for r in plain}
    for r in traced:
        if oracle.geometry_digest(r.result) != plain_digests[r.name]:
            outcome.failed += 1
            outcome.problems.append(f"{r.name}: traced geometry differs from untraced")
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    traced_wall_s = sum(r.clock.wall_s for r in traced)
    outcome.metrics = {
        **stats.calibrate(layer_metrics(tracer, outcome.counters, grid_bytes),
                          traced_s / traced_wall_s),
        **stats.serve_only_zeros(),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
        # Wall over wall; set-up ingestion happens outside the timed flows.
        "trace.coverage": (
            tracer.wrapped_self_s(exclude=("technology.ingest",)) / traced_wall_s,
            "ratio",
        ),
    }
    outcome.detail = detail(traced)
    return outcome
