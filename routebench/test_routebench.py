"""Self-checks of the benchmark: determinism, observation-only tracing,
compare verdicts and serve harness hygiene.

Run from the repository root::

    python3 -m pytest routebench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from repro import instrument  # noqa: E402
from repro.bench_suite import random_corpus  # noqa: E402
from repro.flow import overcell_flow  # noqa: E402
from repro.io import design_to_dict  # noqa: E402
from repro.serve import ServeError  # noqa: E402

import compare  # noqa: E402
import flows  # noqa: E402
import oracle  # noqa: E402
import serveload  # noqa: E402
from tracer import COUNTERS, Tracer, layer_patches  # noqa: E402


def _route(name: str):
    workload = next(w for w, (names, _) in flows.WORKLOADS.items() if name in names)
    inputs = flows.make_inputs(workload, 0, False)
    design, params = next((d, p) for n, d, p in inputs.designs if n == name)
    return overcell_flow(design, params)


@pytest.mark.parametrize("name", ["ami33", "dense-quick", "wide-quick"])
def test_counters_and_digests_repeat_and_survive_wrapping(name):
    plain = oracle.geometry_digest(_route(name))
    runs = []
    for traced in (False, True, False):
        tracer = Tracer()
        with instrument.collecting() as col:
            if traced:
                with tracer.installed():
                    result = _route(name)
            else:
                result = _route(name)
        runs.append((oracle.geometry_digest(result), col.counters))
    assert {digest for digest, _ in runs} == {plain}
    assert runs[0][1] == runs[1][1] == runs[2][1]
    assert runs[0][1]["mbfs.nodes_expanded"] > 0
    assert set(COUNTERS) - {"iterate.nets_ripped", "maze.nodes_expanded",
                            "maze.fallbacks", "ripups.performed"} <= set(runs[0][1])
    if name in oracle.RECORDED:
        assert plain == oracle.RECORDED[name][0]


def test_redraw_redraws_every_design_from_the_seed():
    def designs(seed: int, redraw: bool) -> dict:
        inputs = flows.make_inputs("suites", seed, redraw)
        return {name: design_to_dict(d) for name, d, _ in inputs.designs}

    published = designs(0, False)
    assert designs(3, False) == published
    redrawn, other = designs(3, True), designs(4, True)
    assert redrawn == designs(3, True)
    for name, doc in redrawn.items():
        assert doc != published[name] and doc != other[name]
    specs = serveload.make_specs(3, True)
    assert [s.doc for s in specs] == [s.doc for s in serveload.make_specs(3, True)]
    assert specs[0].doc != serveload.make_specs(0, False)[0].doc


def _originals():
    return [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr)) for owner, attr, _, _ in layer_patches()]


def test_tracer_restores_every_patch_even_on_error():
    before = _originals()
    with pytest.raises(RuntimeError), Tracer().installed():
        assert _originals() != before
        raise RuntimeError("boom")
    assert all(now is then for (_, _, now), (_, _, then) in zip(_originals(), before))


def test_wrapped_self_times_cover_the_flow():
    inputs = flows.make_inputs("suites", 0, False)
    inputs.designs = [d for d in inputs.designs if d[0] == "ami33"]
    tracer = Tracer()
    with tracer.installed():
        [run] = flows.run_pass(inputs)
    coverage = tracer.wrapped_self_s() / run.clock.wall_s
    assert 0.9 <= coverage <= 1.0 + 1e-6
    # The engine builds candidates exactly once per successful search.
    assert tracer.calls["select.candidates"] == tracer.tallies["search.found"]


def _record(value: float, counter: int, digest: str = "d") -> dict:
    return {
        "workload": "suites", "trace": 1,
        "result": {"metrics": {
            "search.run_s": {"value": value, "unit": "s"},
            "flow_wall_s": {"value": value, "unit": "s"},
            "mbfs.nodes_expanded": {"value": counter, "unit": "count"},
        }},
        "designs": {"ami33": {"digest": digest}},
        "counters": {"mbfs.nodes_expanded": counter},
    }


def test_compare_flags_counter_drift_and_timing_regressions():
    spec = compare.load_spec()
    base = [_record(1.0, 100), _record(1.02, 100)]
    rows, problems = compare.compare_group(base, [_record(1.01, 100)], spec)
    assert problems == 0
    verdicts = {row[0]: row[-1] for row in rows}
    assert verdicts["mbfs.nodes_expanded"] == "same"
    rows, problems = compare.compare_group(base, [_record(1.01, 101, "e")], spec)
    verdicts = {row[0]: row[-1] for row in rows}
    assert verdicts["mbfs.nodes_expanded"] == "DRIFT"
    assert verdicts["digests+counters"] == "DRIFT"
    rows, problems = compare.compare_group(base, [_record(2.0, 100)], spec)
    verdicts = {row[0]: row[-1] for row in rows}
    assert verdicts["flow_wall_s"] == "REGRESSED" and problems == 1


class _RefusingClient:
    calls = 0

    def submit(self, spec):
        self.calls += 1
        raise ServeError(503, "job queue full (1 pending)")


def test_refused_request_fails_without_retry():
    client = _RefusingClient()
    reply = serveload.request(client, 0, {"design": "ami33"})
    assert client.calls == 1
    assert reply.error is not None and "503" in reply.error


def test_child_server_binds_port_zero_serves_and_stops():
    specs = [
        serveload.Spec(d.name, {"design": design_to_dict(d)}, d, None)
        for d in random_corpus(2, corpus_seed=7, num_cells=6, num_nets=8)
    ]
    with serveload.child_server() as child:
        assert child.client.port != 8787
        replies = serveload.drive(child.client.host, child.client.port, specs,
                                  [[0, 1], [0, 1]]).replies
        payloads = serveload._payloads(child.client, specs, replies)
    assert child.proc.returncode is not None
    assert child.timeline.samples and child.boot_s > 0
    assert [r.error for r in replies] == [None] * 4
    assert sum(r.record["cache_hit"] for r in replies) == 2
    for i, spec in enumerate(specs):
        expected = oracle.triple(overcell_flow(spec.design))
        assert oracle.verify_payload(spec.name, payloads[i], expected) == []
