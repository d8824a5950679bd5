"""The ``serve`` workload: a closed loop of clients against ``repro serve``.

``CLIENTS`` client threads (never more than the CPU count) each send a
request, wait until its terminal record is in hand, and only then send
the next, so a slow server receives less load.  The request sequence is
drawn from the seed over a fixed set of 70 distinct designs: 68 small
``random_corpus`` designs, ami33 by suite name, and an inline wide-quick
design with the wide stackup, ``planes=2`` and ``check=True``.  The
plan runs in three rounds (:func:`make_plan`): a third of the designs
once in seeded order (cache misses that route), then 140 seeded repeats
of the designs sent so far (cache hits), so six requests in seven are
hits.  A hit takes a few milliseconds and the median of 140 of them
moved by a fifth between runs; over 420 spread across the run it holds
within a tenth.  The clients finish each phase before any of them
starts the next, so no hit is timed beside a route.

The untraced run hosts the server in its own child process, bound to
port 0 and stopped through ``/shutdown``, and sends the plan once to a
freshly booted server.  The traced run hosts it in this process so its
functions can be wrapped, once untraced and once traced, to measure the
tracing overhead on equal terms.  A refused request (503 queue full), an
error or a timeout is a failed request and is never retried.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.bench_suite import random_corpus, wide_design
from repro.flow import FlowParams, overcell_flow
from repro.io import design_to_dict
from repro.serve import RoutingServer, ServeClient, ServeError

import oracle
import stats
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
STACKUP = Path(__file__).with_name("stackup_wide.json")

N_REQUESTS = 490  # p95 keeps ten samples beyond it
ROUNDS = 3  # route-then-hit phase pairs the plan is split into
CORPUS_DESIGNS = 68
CLIENTS = max(1, min(2, os.cpu_count() or 1))
WORKERS = 2
REQUEST_TIMEOUT_S = 120.0
BOOT_TIMEOUT_S = 60.0
SETUP_REPEATS = 3
#: Corpus designs per run whose served payload is re-checked against a
#: local flow run of the same design.
ORACLE_SAMPLE = 3
TERMINAL = ("done", "failed")


@dataclass
class Spec:
    name: str
    doc: dict[str, Any]
    design: Any  # the Design for corpus entries, for the oracle's flow run
    expected: tuple[int, int, float] | None  # recorded triple, if published


def make_specs(seed: int, redraw: bool) -> list[Spec]:
    """Every distinct request body of the workload."""
    corpus = random_corpus(
        CORPUS_DESIGNS, corpus_seed=seed if redraw else 0, prefix="serve"
    )
    specs = [Spec(d.name, {"design": design_to_dict(d)}, d, None) for d in corpus]
    specs.append(Spec("ami33", {"design": "ami33"}, None, oracle.RECORDED["ami33"][1:]))
    wide = {
        "design": design_to_dict(wide_design("quick")),
        "technology": json.loads(STACKUP.read_text()),
        "planes": 2,
        "check": True,
    }
    specs.append(Spec("wide-quick", wide, None, oracle.RECORDED["wide-quick"][1:]))
    return specs


def make_plan(n_specs: int, seed: int) -> list[list[int]]:
    """Spec indices in send order, as phases that route or hit the cache.

    Every spec is sent once, in seeded order, split into ``ROUNDS``
    phases; each is followed by a phase of seeded repeats of the specs
    sent so far.  Every first request routes and every repeat is
    answered from the cache.  Keeping the phases apart keeps hits off a
    server that is routing: a GIL-bound server answers a hit in a few
    milliseconds when idle but 2-4x slower beside a route, so mixing
    them would make the hit latency depend on how the seed interleaves
    the two.  Spreading the hits over the run keeps a short slow spell
    of the host from moving their median.
    """
    rng = random.Random(seed)
    first = list(range(n_specs))
    rng.shuffle(first)
    repeats = (N_REQUESTS - n_specs) // ROUNDS
    cuts = [n_specs * k // ROUNDS for k in range(ROUNDS + 1)]
    plan = []
    for lo, hi in zip(cuts, cuts[1:]):
        plan.append(first[lo:hi])
        plan.append([rng.choice(first[:hi]) for _ in range(repeats)])
    return plan


@dataclass
class Reply:
    spec: int
    start: float  # perf_counter stamps of submit and reply
    end: float
    record: dict[str, Any] | None
    error: str | None
    latency_s: float = 0.0  # calibrated, filled in by Load.calibrate()


def request(client: ServeClient, index: int, doc: dict[str, Any]) -> Reply:
    """Submit one spec and wait for its terminal record; never retries."""
    start = time.perf_counter()
    try:
        record = client.submit(doc)
        if record["state"] not in TERMINAL:
            record = client.wait(record["id"], timeout_s=REQUEST_TIMEOUT_S)
    except (ServeError, OSError, http.client.HTTPException) as exc:
        return Reply(index, start, time.perf_counter(), None,
                     f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    if record["state"] != "done" or not record["ok"]:
        return Reply(index, start, end, record,
                     f"job {record['id']} {record['state']}: {record.get('error')}")
    return Reply(index, start, end, record, None)


@dataclass
class Load:
    replies: list[Reply]
    start: float  # perf_counter stamps of the first submit and last reply
    end: float
    timeline: stats.SpeedTimeline  # sampled in this process meanwhile
    wall_s: float = 0.0  # calibrated, as are the replies' latencies
    factor: float = 0.0  # calibrated seconds per wall second during the load

    def calibrate(self, timeline: stats.SpeedTimeline) -> None:
        """Fill in calibrated times at the host speed ``timeline`` sampled."""
        for reply in self.replies:
            reply.latency_s = timeline.seconds(reply.start, reply.end)
        self.wall_s = timeline.seconds(self.start, self.end)
        self.factor = self.wall_s / (self.end - self.start)


def drive(host: str, port: int, specs: list[Spec], plan: list[list[int]]) -> Load:
    """Send the plan's phases in turn from ``CLIENTS`` closed-loop threads.

    The main thread samples the host's speed while the clients run (see
    :class:`stats.Calibrated`), which calibrates an in-process server;
    a child server's own samples replace it (:func:`child_server`).
    """
    replies: list[Reply] = []
    lock = threading.Lock()

    def client_loop(cursor: Iterator[int]) -> None:
        client = ServeClient(host, port, timeout_s=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            reply = request(client, index, specs[index].doc)
            with lock:
                replies.append(reply)

    timeline = stats.SpeedTimeline()
    start = time.perf_counter()
    for phase in plan:
        cursor = iter(phase)
        threads = [threading.Thread(target=client_loop, args=(cursor,))
                   for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            timeline.sample()
            time.sleep(stats.SAMPLE_INTERVAL_S)
        for t in threads:
            t.join()
    end = time.perf_counter()
    return Load(replies, start, end, timeline)


@dataclass
class Child:
    """A ``repro serve`` child process and the host speed it sampled."""

    client: ServeClient
    proc: subprocess.Popen
    booted: tuple[float, float]  # perf_counter stamps: launch, first health reply
    timeline: stats.SpeedTimeline  # filled in once the child has exited

    @property
    def boot_s(self) -> float:
        """Calibrated launch-to-healthy time; valid once the child exited."""
        return self.timeline.seconds(*self.booted)


@contextmanager
def child_server() -> Iterator[Child]:
    """Boot ``repro serve`` on port 0 in a child process.

    The child runs under ``serve_child.py``, which samples the host's
    speed inside the server and reports the samples when it stops; they
    are in ``Child.timeline`` after the ``with`` block.  The server is
    stopped through ``/shutdown`` and waited for on exit, and killed if
    it does not stop, so no process outlives the run.
    """
    start = time.perf_counter()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("serve_child.py")),
         "--port", "0", "--workers", str(WORKERS),
         "--queue-size", str(N_REQUESTS + 16)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    child = None
    try:
        banner = proc.stdout.readline()  # "serving on http://HOST:PORT (...)"
        found = re.search(r"http://([^:/\s]+):(\d+)", banner)
        if found is None:
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        client = ServeClient(found.group(1), int(found.group(2)),
                             timeout_s=REQUEST_TIMEOUT_S)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not client.health().get("ok"):
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.01)
        child = Child(client, proc, (start, time.perf_counter()),
                      stats.SpeedTimeline())
        yield child
    finally:
        if child is not None and proc.poll() is None:
            try:
                child.client.shutdown(drain=False)
            except (ServeError, OSError, http.client.HTTPException):
                pass
        try:
            rest, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            rest, _ = proc.communicate()
        if child is not None and rest.strip():
            sampled = json.loads(rest.strip().splitlines()[-1])
            child.timeline.stamps = sampled["stamps"]
            child.timeline.samples = sampled["samples"]


@contextmanager
def inprocess_server() -> Iterator[tuple[ServeClient, RoutingServer]]:
    server = RoutingServer(port=0, workers=WORKERS, queue_size=N_REQUESTS + 16)
    server.start()
    try:
        yield ServeClient(server.host, server.port,
                          timeout_s=REQUEST_TIMEOUT_S), server
    finally:
        server.stop(drain=False)


# ----------------------------------------------------------------------
def _check_replies(outcome: stats.Outcome, replies: list[Reply]) -> None:
    for reply in replies:
        outcome.attempted += 1
        if reply.error is not None:
            outcome.failed += 1
            outcome.problems.append(reply.error)


def _payloads(
    client: ServeClient, specs: list[Spec], replies: list[Reply]
) -> dict[int, dict[str, Any]]:
    """One served payload per distinct spec (hits share the miss's)."""
    job_of: dict[int, str] = {}
    for reply in replies:
        if reply.error is None:
            job_of.setdefault(reply.spec, reply.record["id"])
    return {i: client.result(job)["payload"] for i, job in sorted(job_of.items())}


def _verify_payloads(
    outcome: stats.Outcome,
    specs: list[Spec],
    payloads: dict[int, dict[str, Any]],
    seed: int,
) -> None:
    """Served answers must match the flow run of the same design."""
    corpus = [i for i, s in enumerate(specs) if s.expected is None]
    sample = random.Random(seed).sample(corpus, ORACLE_SAMPLE)
    for i, spec in enumerate(specs):
        if i not in payloads:
            continue  # its requests failed and were counted already
        expected = spec.expected
        if i in sample:
            expected = oracle.triple(overcell_flow(spec.design, FlowParams()))
        if expected is None:
            continue
        problems = oracle.verify_payload(spec.name, payloads[i], expected)
        outcome.attempted += 1
        outcome.failed += bool(problems)
        outcome.problems.extend(problems)


def _latency_metrics(load: Load) -> stats.Metrics:
    ok = [r for r in load.replies if r.error is None]
    routed = [r.latency_s for r in ok if not r.record["cache_hit"]]
    all_s = [r.latency_s for r in ok]
    return {
        "flow_wall_s": (load.wall_s, "s"),
        "requests_per_s": (len(ok) / load.wall_s, "1/s"),
        "latency_p50_s": (stats.percentile(all_s, 0.50), "s"),
        "latency_p95_s": (stats.percentile(all_s, 0.95), "s"),
        "routed_p50_s": (stats.percentile(routed, 0.50), "s"),
    }


def _quality(payloads: dict[int, dict[str, Any]], load: Load) -> stats.Metrics:
    nets = sum(
        payloads[r.spec]["result"]["notes"]["level_b_nets"]
        for r in load.replies
        if r.error is None and not r.record["cache_hit"]
    )
    served = list(payloads.values())
    return {
        "nets_per_s": (nets / load.wall_s, "1/s"),
        "completion": (statistics.fmean(p["completion"] for p in served), "ratio"),
        "wire_length": (sum(p["wire_length"] for p in served), "lambda"),
        "via_count": (sum(p["via_count"] for p in served), "count"),
        "layout_area": (sum(p["layout_area"] for p in served), "lambda2"),
    }


def run(seed: int, import_s: float, redraw: bool) -> stats.Outcome:
    """The untraced run against a child-process server.

    The server is booted ``SETUP_REPEATS`` times for the set-up median;
    the plan runs once, against the last boot (a cold cache).
    """
    outcome = stats.Outcome({}, attempted=0)
    gen_s = []
    for _ in range(SETUP_REPEATS):
        with stats.Calibrated() as clock:
            specs = make_specs(seed, redraw)
        gen_s.append(clock.seconds)
    plan = make_plan(len(specs), seed)
    boot_s = []
    for boot in range(SETUP_REPEATS):
        with child_server() as child:
            if boot == SETUP_REPEATS - 1:
                load = drive(child.client.host, child.client.port, specs, plan)
                payloads = _payloads(child.client, specs, load.replies)
        boot_s.append(child.boot_s)
    load.calibrate(child.timeline)
    _check_replies(outcome, load.replies)
    _verify_payloads(outcome, specs, payloads, seed)
    outcome.metrics = {
        "setup_s": (import_s + statistics.median(gen_s) + statistics.median(boot_s), "s"),
        **_latency_metrics(load),
        **_quality(payloads, load),
        # The largest waited-for child: a server that took the load.
        "peak_rss_mb": (stats.peak_rss_mb(children=True), "MB"),
    }
    return outcome


def run_traced(seed: int, redraw: bool) -> stats.Outcome:
    """The plan against an in-process server, untraced and then traced."""
    outcome = stats.Outcome({}, attempted=0)
    specs = make_specs(seed, redraw)
    plan = make_plan(len(specs), seed)
    with inprocess_server() as (client, _server):
        plain = drive(client.host, client.port, specs, plan)
    tracer = Tracer()
    with tracer.installed(), inprocess_server() as (client, server):
        load = drive(client.host, client.port, specs, plan)
        queue = server.stats()["queue"]["counters"]
    plain.calibrate(plain.timeline)
    load.calibrate(load.timeline)
    _check_replies(outcome, plain.replies + load.replies)
    # Hit latency from the untraced pass: the wrappers sit on the hit path.
    hits = [r.latency_s for r in plain.replies
            if r.error is None and r.record["cache_hit"]]
    ok = [r for r in load.replies if r.error is None]
    waits = [
        r.latency_s - (r.record["finished_at"] - r.record["started_at"]) * load.factor
        for r in ok
        if not r.record["cache_hit"]
    ]
    outcome.counters = dict(tracer.counters)
    layers = layer_metrics(tracer, outcome.counters, tracer.tallies["grid.bytes"])
    outcome.metrics = {
        **stats.calibrate(layers, load.factor),
        "serve.hit_p50_s": (stats.percentile(hits, 0.50), "s"),
        "serve.queue_wait_p50_s": (stats.percentile(waits, 0.50), "s"),
        "serve.cache_hit_ratio": (queue["cache_hits"] / queue["submitted"], "ratio"),
        "serve.coalesced": (queue["coalesced"], "count"),
        "trace.overhead_ratio": (load.wall_s / plain.wall_s, "ratio"),
        # Share of execute_spec time spent inside the wrapped layers.
        "trace.coverage": (
            1.0 - tracer.self_s["serve.execute"] / tracer.total_s["serve.execute"],
            "ratio",
        ),
    }
    return outcome
