"""Tests for repro.serve — server, queue, cache, protocol, streaming."""

from __future__ import annotations

import json
import math
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import make_toy_design
from repro.io import design_to_dict
from repro.serve import (
    EventBuffer,
    JobQueue,
    JobSpec,
    QueueClosed,
    QueueFull,
    ResultCache,
    RoutingServer,
    ServeClient,
    ServeError,
    SpecError,
)


GOLDEN_STACKUP = Path(__file__).parent / "golden" / "stackup_wide.json"


def toy_spec(seed: int = 7, **overrides) -> dict:
    """An inline-design job spec that routes in milliseconds."""
    doc = design_to_dict(make_toy_design(seed=seed))
    spec = {"design": doc, "flow": "overcell"}
    spec.update(overrides)
    return spec


# ----------------------------------------------------------------------
# Protocol: validation and digests
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_suite_name_accepted(self):
        spec = JobSpec.from_dict({"design": "ex3"})
        assert spec.design == "ex3"
        assert spec.flow == "overcell"

    def test_unknown_suite_rejected(self):
        with pytest.raises(SpecError, match="unknown suite"):
            JobSpec.from_dict({"design": "nonexistent"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown job spec keys"):
            JobSpec.from_dict({"design": "ex3", "bogus": 1})

    def test_missing_design_rejected(self):
        with pytest.raises(SpecError, match="requires a 'design'"):
            JobSpec.from_dict({"flow": "overcell"})

    def test_bad_flow_rejected(self):
        with pytest.raises(SpecError, match="unknown flow"):
            JobSpec.from_dict({"design": "ex3", "flow": "quantum"})

    def test_inline_design_needs_format_marker(self):
        with pytest.raises(SpecError, match="repro-design"):
            JobSpec.from_dict({"design": {"name": "x"}})

    def test_bad_planes_rejected(self):
        with pytest.raises(SpecError, match="planes"):
            JobSpec.from_dict({"design": "ex3", "planes": 0})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("planes", True),
            ("planes", False),
            ("max_iterations", True),
            ("max_iterations", False),
        ],
        ids=["planes-true", "planes-false", "iterations-true", "iterations-false"],
    )
    def test_boolean_integers_rejected(self, key, value):
        # JSON true/false parse to Python bools, which are ints: taken
        # as integers they would route like 1/0 under a separate digest.
        with pytest.raises(SpecError, match=f"'{key}' must be an integer"):
            JobSpec.from_dict({"design": "ami33", key: value})

    @pytest.mark.parametrize(
        "flow", [["overcell"], {}], ids=["list", "object"]
    )
    def test_non_string_flow_rejected(self, flow):
        with pytest.raises(SpecError, match="'flow' must be a string"):
            JobSpec.from_dict({"design": "ami33", "flow": flow})

    def test_digest_pinned(self):
        # Cache keys outlive the code that computed them: a served
        # result cached under these digests must keep resolving.
        ami33 = JobSpec.from_dict({"design": "ami33"})
        assert ami33.digest() == (
            "1bdf56aacc32b208f105d0a7e01b2b8dc6ee3ebb88665cc7e4cf6dabd4be3ddb"
        )
        ex3 = JobSpec.from_dict(
            {
                "design": "ex3",
                "planes": 2,
                "check": True,
                "iterate": True,
                "ordering_policy": "congestion",
                "objective": "vias",
            }
        )
        assert ex3.digest() == (
            "50ef0766de12b26c3a393cab499862a35298bc4026789ab55eb9581679da628c"
        )

    @pytest.mark.parametrize(
        "extra",
        [
            {"parallel": 2},
            {"parallel": 0},
            {"hierarchical": True},
            {"backend": "dense"},
        ],
        ids=["parallel", "parallel-zero", "hierarchical", "backend"],
    )
    def test_parallel_and_hierarchical_rejected(self, extra):
        # Level B routes serially on one occupancy store; none of these
        # knobs is part of the protocol.
        with pytest.raises(SpecError, match="unknown job spec keys"):
            JobSpec.from_dict({"design": "ex3", **extra})

    def test_digest_sees_planes_and_check(self):
        base = JobSpec.from_dict({"design": "ex3"})
        assert base.digest() != JobSpec.from_dict(
            {"design": "ex3", "planes": 2}
        ).digest()
        assert base.digest() != JobSpec.from_dict(
            {"design": "ex3", "check": True}
        ).digest()

    def test_inline_digest_stable_under_key_order(self):
        doc = toy_spec()["design"]
        reordered = {k: doc[k] for k in reversed(list(doc))}
        a = JobSpec.from_dict({"design": doc})
        b = JobSpec.from_dict({"design": reordered})
        assert a.digest() == b.digest()


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(4)
        assert cache.get("a") is None
        cache.put("a", {"v": 1})
        assert cache.get("a") == {"v": 1}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")  # freshen a; b becomes LRU
        cache.put("c", {"v": 3})
        assert cache.peek("a")
        assert not cache.peek("b")
        assert cache.stats()["evictions"] == 1

    def test_peek_does_not_touch_counters(self):
        cache = ResultCache(2)
        cache.put("a", {})
        cache.peek("a")
        cache.peek("zzz")
        stats = cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0


# ----------------------------------------------------------------------
# Event buffer
# ----------------------------------------------------------------------
class TestEventBuffer:
    def test_paged_reads(self):
        buf = EventBuffer()
        buf.append({"n": 1})
        buf.append({"n": 2})
        events, nxt, closed = buf.read(0)
        assert [e["n"] for e in events] == [1, 2]
        assert nxt == 2
        assert not closed
        events, nxt, _ = buf.read(nxt)
        assert events == []

    def test_blocking_read_wakes_on_append(self):
        buf = EventBuffer()
        result = {}

        def reader():
            result["got"] = buf.read(0, wait_s=5.0)

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        buf.append({"n": 1})
        t.join(timeout=5.0)
        events, nxt, _ = result["got"]
        assert [e["n"] for e in events] == [1]

    def test_blocking_read_wakes_on_close(self):
        buf = EventBuffer()
        threading.Timer(0.05, buf.close).start()
        events, _, closed = buf.read(0, wait_s=5.0)
        assert events == []
        assert closed

    def test_overflow_drops_newest_and_counts(self, monkeypatch):
        from repro.serve import jobqueue

        monkeypatch.setattr(jobqueue, "MAX_EVENTS", 2)
        buf = EventBuffer()
        buf.extend([{"n": 1}, {"n": 2}, {"n": 3}])
        assert len(buf) == 2
        assert buf.dropped == 1

    def test_append_after_close_is_noop(self):
        buf = EventBuffer()
        buf.close()
        buf.append({"n": 1})
        assert len(buf) == 0


# ----------------------------------------------------------------------
# Job queue (no HTTP)
# ----------------------------------------------------------------------
def _count_runs(monkeypatch) -> dict:
    """Count the queue's calls of ``execute_spec`` (one per job run)."""
    from repro.serve import jobqueue

    runs = {"n": 0}
    execute = jobqueue.execute_spec

    def counted(spec, design):
        runs["n"] += 1
        return execute(spec, design)

    monkeypatch.setattr(jobqueue, "execute_spec", counted)
    return runs


def _final_state(record) -> dict:
    """The record's last ``serve.job_state`` event, once it is logged."""
    deadline = time.monotonic() + 10.0
    while not record.events.closed and time.monotonic() < deadline:
        time.sleep(0.01)
    states = [
        e for e in record.events.snapshot()
        if e.get("event") == "serve.job_state"
    ]
    return states[-1]


class TestJobQueue:
    def test_submit_execute_and_cache(self):
        q = JobQueue(workers=1, queue_size=8)
        q.start()
        try:
            spec = JobSpec.from_dict(toy_spec())
            record = q.submit(spec)
            assert record.wait(timeout_s=30.0)
            assert record.state == "done"
            assert record.ok is True
            assert record.payload is not None
            assert record.payload["completion"] == 1.0
            # identical resubmission answers from cache instantly
            dup = q.submit(spec)
            assert dup.cache_hit
            assert dup.terminal
            assert dup.payload == record.payload
            assert q.counters["cache_hits"] == 1
        finally:
            q.close()

    def test_worker_events_reach_buffer(self):
        q = JobQueue(workers=1)
        q.start()
        try:
            record = q.submit(JobSpec.from_dict(toy_spec()))
            record.wait(timeout_s=30.0)
            events = record.events.snapshot()
            names = {e.get("event") for e in events}
            # queue lifecycle plus live routing progress from the flow
            assert "serve.job_state" in names
            assert "net.routed" in names
        finally:
            q.close()

    def test_coalesced_duplicates_share_one_run(self):
        q = JobQueue(workers=1, queue_size=8)
        try:
            # workers not started: submissions pile up, so duplicates
            # provably coalesce instead of racing the cache
            spec = JobSpec.from_dict(toy_spec())
            primary = q.submit(spec)
            follower = q.submit(spec)
            assert follower.coalesced
            q.start()
            assert primary.wait(timeout_s=30.0)
            assert follower.wait(timeout_s=30.0)
            assert follower.payload == primary.payload
            assert follower.cache_hit
            assert q.counters["coalesced"] == 1
            assert q.counters["submitted"] == 2
        finally:
            q.close()

    def test_failed_job_records_error(self, monkeypatch):
        from repro.flow import FLOWS

        def dies(design, params):
            raise ValueError("flow died")

        runs = _count_runs(monkeypatch)
        monkeypatch.setitem(FLOWS, "overcell", dies)
        q = JobQueue(workers=1)
        q.start()
        try:
            record = q.submit(JobSpec.from_dict(toy_spec()))
            assert record.wait(timeout_s=30.0)
            assert record.state == "failed"
            assert record.ok is False
            assert record.error == "ValueError: flow died"
            assert q.counters["failed"] == 1
            assert runs["n"] == 1  # a failure is not rerun
            assert _final_state(record)["timed_out"] is False
        finally:
            q.close()

    def test_timeout_stops_work_and_frees_the_worker(self, monkeypatch):
        from repro.core import LevelBRouter

        runs = _count_runs(monkeypatch)
        nets = {"n": 0}
        route_net = LevelBRouter._route_net

        def counted_route_net(self, net):
            nets["n"] += 1
            return route_net(self, net)

        monkeypatch.setattr(LevelBRouter, "_route_net", counted_route_net)
        q = JobQueue(workers=1, timeout_s=0.3)
        q.start()
        try:
            record = q.submit(JobSpec.from_dict({"design": "ex3"}))
            assert record.wait(timeout_s=30.0)
            routed_at_answer = nets["n"]
            assert record.state == "failed"
            assert record.error == "timed out after 0.3s"
            assert _final_state(record)["timed_out"] is True
            assert runs["n"] == 1
            assert q.counters["failed"] == 1
            # Nothing keeps routing the cancelled job.
            time.sleep(1.0)
            assert nets["n"] == routed_at_answer
            # The same worker runs the next job without the old deadline.
            nxt = q.submit(JobSpec.from_dict(toy_spec()))
            assert nxt.wait(timeout_s=30.0)
            assert nxt.state == "done" and nxt.ok is True
            assert runs["n"] == 2
        finally:
            q.close()

    def test_closed_queue_refuses_submissions(self):
        q = JobQueue(workers=1)
        q.start()
        q.close()
        with pytest.raises(QueueClosed):
            q.submit(JobSpec.from_dict(toy_spec()))

    def test_refused_submissions_leave_no_record(self):
        q = JobQueue(workers=1, queue_size=1)  # never started
        queued = q.submit(JobSpec.from_dict(toy_spec(seed=31)))
        with pytest.raises(QueueFull):
            q.submit(JobSpec.from_dict(toy_spec(seed=32)))
        bad = toy_spec(seed=33)
        bad["design"]["cells"] = [{}]
        with pytest.raises(SpecError, match="invalid design document"):
            q.submit(JobSpec.from_dict(bad))
        counters = q.stats()["counters"]
        assert counters["submitted"] == 1 and counters["cache_misses"] == 1
        assert q.list_records() == [queued]
        # Ids stay dense: the next record is the second one.
        assert q.submit(JobSpec.from_dict(toy_spec(seed=31))).id == "j000002"
        q.close(drain=False)

    def test_design_build_holds_no_lock(self, monkeypatch):
        # A cache hit and /stats answer while another request's design
        # is still being built.
        from repro.serve import jobqueue

        q = JobQueue(workers=1, queue_size=8)  # never started
        hit_spec = JobSpec.from_dict(toy_spec(seed=34))
        q.cache.put(hit_spec.digest(), {"completion": 1.0})
        building, release = threading.Event(), threading.Event()
        build = jobqueue.build_design

        def slow_build(spec):
            building.set()
            release.wait(30.0)
            return build(spec)

        monkeypatch.setattr(jobqueue, "build_design", slow_build)
        miss = threading.Thread(
            target=q.submit, args=(JobSpec.from_dict(toy_spec(seed=35)),)
        )
        miss.start()
        answered = []
        try:
            assert building.wait(30.0)
            reader = threading.Thread(
                target=lambda: answered.append((q.submit(hit_spec), q.stats()))
            )
            reader.start()
            reader.join(10.0)
            assert answered, "the cache hit waited on the design build"
            hit, stats = answered[0]
            assert hit.cache_hit and hit.state == "done"
            assert stats["counters"]["submitted"] == 1
        finally:
            release.set()
            miss.join(30.0)
            q.close(drain=False)
        assert not miss.is_alive()
        assert q.stats()["counters"]["cache_misses"] == 1

    def test_duplicates_built_together_coalesce(self, monkeypatch):
        # Two identical misses build their designs at the same time;
        # the one that registers second coalesces onto the first.
        from repro.serve import jobqueue

        q = JobQueue(workers=1, queue_size=8)  # never started
        both_building = threading.Barrier(2, timeout=30.0)
        build = jobqueue.build_design

        def paired_build(spec):
            both_building.wait()
            return build(spec)

        monkeypatch.setattr(jobqueue, "build_design", paired_build)
        spec = JobSpec.from_dict(toy_spec(seed=36))
        records = []
        threads = [
            threading.Thread(target=lambda: records.append(q.submit(spec)))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        try:
            assert not any(t.is_alive() for t in threads)
            assert sorted(r.coalesced for r in records) == [False, True]
            counters = q.stats()["counters"]
            assert counters["submitted"] == 2
            assert counters["cache_misses"] == 1
            assert counters["coalesced"] == 1
            assert q.depth() == 1
        finally:
            q.close(drain=False)

    def test_concurrent_submits_queue_each_digest_once(self, monkeypatch):
        # More submitting threads than cores, released together and
        # switching often, and a design build slow enough to overlap,
        # so identical specs race through submit: each distinct spec is
        # queued once, every other submission coalesces onto it, and no
        # count or id is lost.
        from repro.serve import jobqueue

        build = jobqueue.build_design

        def slow_build(spec):
            time.sleep(0.005)
            return build(spec)

        monkeypatch.setattr(jobqueue, "build_design", slow_build)
        q = JobQueue(workers=1, queue_size=64)  # never started
        specs = [JobSpec.from_dict(toy_spec(seed=40 + i)) for i in range(4)]
        n_threads, per_thread = 8, 6
        records: list = []
        errors: list[BaseException] = []
        lock = threading.Lock()
        start = threading.Barrier(n_threads, timeout=30.0)

        def client(k: int) -> None:
            try:
                start.wait()
                for j in range(per_thread):
                    record = q.submit(specs[(k + j) % len(specs)])
                    with lock:
                        records.append(record)
            except BaseException as exc:  # noqa: BLE001 - collect for assert
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(k,))
            for k in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors[:3]
            total = n_threads * per_thread
            counters = q.stats()["counters"]
            assert counters["submitted"] == len(records) == total
            assert counters["cache_misses"] == q.depth() == len(specs)
            assert counters["coalesced"] == total - len(specs)
            assert sorted(r.id for r in records) == [
                f"j{i:06d}" for i in range(1, total + 1)
            ]
        finally:
            q.close(drain=False)

    def test_close_without_drain_fails_queued_jobs(self):
        q = JobQueue(workers=1, queue_size=8)  # never started
        record = q.submit(JobSpec.from_dict(toy_spec()))
        q.close(drain=False)
        assert record.state == "failed"
        assert "shutdown" in (record.error or "")


# ----------------------------------------------------------------------
# HTTP server end-to-end
# ----------------------------------------------------------------------
def _raw_post_job(server, doc) -> tuple[bytes, dict]:
    """``POST /jobs`` over a raw socket: the reply head and JSON body.

    ``doc`` is a spec to encode, or a body already encoded."""
    body = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    with socket.create_connection((server.host, server.port), timeout=30.0) as sock:
        sock.sendall(
            b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return head, json.loads(payload)


@pytest.fixture(scope="module")
def server():
    srv = RoutingServer(port=0, workers=2, cache_size=128, queue_size=256)
    srv.start()
    yield srv
    srv.stop(drain=False)


@pytest.fixture()
def client(server):
    return ServeClient(server.host, server.port, timeout_s=60.0)


class TestServerEndpoints:
    def test_healthz(self, client):
        doc = client.health()
        assert doc["ok"] is True
        assert doc["state"] == "serving"

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.status("j999999")
        assert exc.value.status == 404

    def test_invalid_spec_400(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit({"design": "nonexistent"})
        assert exc.value.status == 400

    def test_submit_wait_result(self, client):
        record = client.submit(toy_spec(seed=100))
        assert record["_status"] == 202
        assert record["state"] == "queued"
        final = client.wait(record["id"], timeout_s=60.0)
        assert final["state"] == "done"
        assert final["ok"] is True
        result = client.result(record["id"])
        payload = result["payload"]
        assert payload["completion"] == 1.0
        assert payload["digest"] == record["digest"]
        assert payload["result"]["format"] == "repro-flow-result"

    def test_result_conflict_before_done(self, client):
        # ami33 routes in ~1s, so the result endpoint answers 409
        # while the job is still queued or running
        record = client.submit({"design": "ami33"})
        if record["state"] not in ("done", "failed"):
            with pytest.raises(ServeError) as exc:
                client.result(record["id"])
            assert exc.value.status == 409
        client.wait(record["id"], timeout_s=120.0)
        assert client.result(record["id"])["payload"]["completion"] == 1.0

    def test_duplicate_submission_is_cache_hit(self, client):
        spec = toy_spec(seed=200)
        first = client.submit(spec)
        client.wait(first["id"], timeout_s=60.0)
        second = client.submit(spec)
        assert second["_status"] == 200
        assert second["state"] == "done"
        assert second["cache_hit"] is True
        assert client.result(second["id"])["payload"] == (
            client.result(first["id"])["payload"]
        )

    def test_parallel_variant_is_400(self, client):
        # ``parallel`` is not a protocol key: the request fails
        # validation instead of being silently ignored.
        with pytest.raises(ServeError) as exc:
            client.submit(toy_spec(seed=201, parallel=2))
        assert exc.value.status == 400
        assert "unknown job spec keys" in exc.value.message

    def test_backend_variant_is_400(self, client):
        # ``backend`` is not a protocol key: the request fails
        # validation instead of being silently ignored.
        with pytest.raises(ServeError) as exc:
            client.submit(toy_spec(seed=208, backend="dense"))
        assert exc.value.status == 400
        assert "unknown job spec keys" in exc.value.message

    def test_events_pagination(self, client):
        record = client.submit(toy_spec(seed=202))
        client.wait(record["id"], timeout_s=60.0)
        page = client.events(record["id"], since=0)
        assert page["events"]
        assert page["next"] == len(page["events"])
        rest = client.events(record["id"], since=page["next"])
        assert rest["events"] == []
        assert rest["done"] is True

    def test_stream_yields_progress_then_end(self, client):
        record = client.submit(toy_spec(seed=203))
        events = list(client.stream(record["id"]))
        names = [e.get("event") for e in events]
        assert names[-1] == "serve.stream_end"
        assert "serve.job_state" in names
        assert "net.routed" in names
        assert events[-1]["state"] == "done"

    def test_long_poll_returns_terminal_state(self, client):
        record = client.submit(toy_spec(seed=204))
        final = client.status(record["id"], wait_s=30.0)
        assert final["state"] in ("done", "failed")

    def test_checked_job_reports_clean(self, client):
        record = client.submit(toy_spec(seed=205, check=True))
        final = client.wait(record["id"], timeout_s=60.0)
        assert final["ok"] is True
        payload = client.result(record["id"])["payload"]
        assert payload["check_clean"] is True
        assert payload["check_violations"] == 0

    def test_ordering_policy_orders_one_pass_jobs(self, client):
        """A spec naming ``feature`` without ``iterate`` is routed in the
        ``feature`` order: ami33 at 106,464 / 936, not the longest-first
        106,396 / 940."""
        record = client.submit({"design": "ami33", "ordering_policy": "feature"})
        final = client.wait(record["id"], timeout_s=60.0)
        assert final["ok"] is True
        payload = client.result(record["id"])["payload"]
        assert (payload["wire_length"], payload["via_count"]) == (106_464, 936)

    def test_probe_endpoint_is_gone(self, client):
        # A job reports completion and failed nets itself; there is no
        # second level B path behind a pre-screen endpoint.
        with pytest.raises(ServeError) as exc:
            client._request("POST", "/probe", {"design": "ami33"})
        assert exc.value.status == 404
        assert "probes" not in client.stats()

    def test_malformed_content_length_is_400(self, server):
        # Read the raw reply: the server must answer before it closes.
        with socket.create_connection(
            (server.host, server.port), timeout=30.0
        ) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: abc\r\n\r\n{}"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]

    def test_non_string_flow_is_400_and_keeps_serving(self, server, client):
        head, payload = _raw_post_job(
            server, {"design": "ami33", "flow": ["overcell"]}
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "'flow' must be a string" in payload["error"]
        assert client.health()["ok"] is True

    @pytest.mark.parametrize(
        "design, error",
        [
            ({"format": "repro-design"}, "ValueError"),
            (
                {
                    "format": "repro-design",
                    "version": 1,
                    "name": "x",
                    "cells": "x",
                    "nets": [],
                },
                "TypeError",
            ),
            ("unknown-pin", "ValueError"),
            (
                {
                    "format": "repro-design",
                    "version": 1,
                    "name": "x",
                    "cells": [{}],
                    "nets": [],
                },
                "KeyError",
            ),
        ],
        ids=["format-only", "cells-string", "unknown-pin", "empty-cell"],
    )
    def test_malformed_inline_design_is_400_without_record(
        self, server, client, design, error
    ):
        if design == "unknown-pin":
            design = design_to_dict(make_toy_design(seed=209))
            net = dict(design["nets"][0], pins=["nope.p0", "c0.p1"])
            design["nets"] = [net, *design["nets"][1:]]
        before = {r["id"] for r in client.jobs()}
        counted = client.stats()["queue"]["counters"]
        head, payload = _raw_post_job(server, {"design": design})
        assert head.startswith(b"HTTP/1.1 400 ")
        assert payload["error"].startswith(f"invalid design document: {error}")
        assert {r["id"] for r in client.jobs()} == before
        # Refused like a spec that fails validation: nothing counted,
        # no job id used.
        now = client.stats()["queue"]["counters"]
        for key in ("submitted", "cache_misses", "coalesced"):
            assert now[key] == counted[key]
        # The server keeps serving: a valid inline design routes, and
        # repeating it is a cache hit.
        spec = toy_spec(seed=210)
        first = client.submit(spec)
        assert first["id"] == f"j{counted['submitted'] + 1:06d}"
        assert client.wait(first["id"], timeout_s=60.0)["state"] == "done"
        assert client.submit(spec)["cache_hit"] is True

    @pytest.mark.parametrize(
        "case, error",
        [
            ("design-nan-offset", "job spec numbers must be finite"),
            ("via-cost-infinity", "via cost must be finite and positive"),
            ("pitch-1e400", "stackup metal3 pitch must be finite"),
            ("no-layers", "a layer stack needs at least the channel pair"),
            ("repeated-name", "duplicate layer name 'metal3' in stack"),
        ],
        ids=[
            "design-nan-offset", "via-cost-infinity", "pitch-1e400",
            "no-layers", "repeated-name",
        ],
    )
    def test_unusable_spec_is_400_without_record(
        self, server, client, case, error
    ):
        stackup = json.loads(GOLDEN_STACKUP.read_text())
        if case == "design-nan-offset":
            spec = toy_spec(seed=211)
            spec["design"]["cells"][0]["pins"][0]["offset"] = math.nan
            body = json.dumps(spec).encode()
        elif case == "via-cost-infinity":
            stackup["vias"][2]["cost"] = math.inf
            body = json.dumps({"design": "ex3", "technology": stackup}).encode()
        elif case == "pitch-1e400":
            stackup["metals"][2]["pitch"] = math.inf
            body = json.dumps(
                {"design": "ex3", "technology": stackup}
            ).replace("Infinity", "1e400").encode()
        elif case == "no-layers":
            body = json.dumps({"design": "ex3", "technology": {
                "format": "repro-technology", "version": 1, "name": "x",
                "layers": [], "vias": [],
            }}).encode()
        else:
            stackup["metals"][3]["name"] = "metal3"
            body = json.dumps({"design": "ex3", "technology": stackup}).encode()
        before = {r["id"] for r in client.jobs()}
        counted = client.stats()["queue"]["counters"]
        head, payload = _raw_post_job(server, body)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert error in payload["error"]
        assert {r["id"] for r in client.jobs()} == before
        now = client.stats()["queue"]["counters"]
        for key in ("submitted", "cache_misses", "coalesced"):
            assert now[key] == counted[key]
        assert client.health()["ok"] is True

    def test_stats_shape(self, client):
        stats = client.stats()
        assert stats["format"] == "repro-serve-stats"
        assert "queue" in stats and "cache" in stats
        assert stats["queue"]["counters"]["submitted"] >= 1

    def test_jobs_listing(self, client):
        client.submit(toy_spec(seed=207))
        listing = client.jobs()
        assert listing
        assert all("payload" not in r for r in listing)


class TestServerShutdown:
    def test_drain_shutdown_finishes_queued_work(self):
        srv = RoutingServer(port=0, workers=1, queue_size=64).start()
        client = ServeClient(srv.host, srv.port, timeout_s=60.0)
        ids = [client.submit(toy_spec(seed=400 + i))["id"] for i in range(3)]
        client.shutdown(drain=True)
        assert srv.wait_stopped(timeout_s=60.0)
        for job_id in ids:
            record = srv.jobs.get(job_id)
            assert record is not None
            assert record.state == "done"

    def test_non_boolean_drain_is_400_and_keeps_serving(self):
        srv = RoutingServer(port=0, workers=1).start()
        try:
            client = ServeClient(srv.host, srv.port, timeout_s=30.0)
            with pytest.raises(ServeError) as exc:
                client._request("POST", "/shutdown", {"drain": "false"})
            assert exc.value.status == 400
            assert "drain" in exc.value.message
            assert client.health()["state"] == "serving"
            assert not srv.wait_stopped(timeout_s=0.2)
        finally:
            srv.stop(drain=False)

    def test_submissions_refused_while_draining(self):
        srv = RoutingServer(port=0, workers=1).start()
        srv.jobs.close(drain=True)
        client = ServeClient(srv.host, srv.port, timeout_s=30.0)
        with pytest.raises(ServeError) as exc:
            client.submit(toy_spec(seed=500))
        assert exc.value.status == 503
        srv.stop(drain=False)


# ----------------------------------------------------------------------
# The load-bearing e2e: many concurrent clients, duplicates and
# distinct jobs, all streamed, duplicates cache-answered, and a served
# result that survives `repro check --strict`.
# ----------------------------------------------------------------------
class TestConcurrentClients:
    N_CLIENTS = 50
    N_DISTINCT = 10

    def test_fifty_concurrent_clients(self, tmp_path: Path):
        srv = RoutingServer(
            port=0, workers=2, cache_size=64, queue_size=256
        ).start()
        results: list[dict] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def one_client(i: int) -> None:
            try:
                # 10 distinct designs, each submitted 5 times
                spec = toy_spec(seed=1000 + (i % self.N_DISTINCT))
                client = ServeClient(srv.host, srv.port, timeout_s=120.0)
                record = client.submit(spec)
                streamed = list(client.stream(record["id"]))
                final = client.wait(record["id"], timeout_s=120.0)
                payload = client.result(record["id"])["payload"]
                with lock:
                    results.append(
                        {
                            "i": i,
                            "id": record["id"],
                            "state": final["state"],
                            "ok": final["ok"],
                            "cache_hit": final["cache_hit"],
                            "coalesced": final["coalesced"],
                            "completion": payload["completion"],
                            "digest": payload["digest"],
                            "streamed": len(streamed),
                        }
                    )
            except BaseException as exc:  # noqa: BLE001 - collect for assert
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,))
            for i in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)

        try:
            assert not errors, f"client failures: {errors[:3]}"
            assert len(results) == self.N_CLIENTS
            # every job completed correctly
            assert all(r["state"] == "done" for r in results)
            assert all(r["ok"] for r in results)
            assert all(r["completion"] == 1.0 for r in results)
            # every client saw streamed progress (at least the
            # lifecycle transitions and the stream terminator)
            assert all(r["streamed"] >= 2 for r in results)
            # identical specs converged on identical digests/payloads
            digests = {r["digest"] for r in results}
            assert len(digests) == self.N_DISTINCT
            # duplicates were answered from cache or coalesced onto an
            # in-flight run -- either way the router ran once per digest
            stats = srv.jobs.stats()["counters"]
            hits = stats["cache_hits"]
            assert hits > 0, f"expected cache hits, got {stats}"
            assert (
                stats["cache_misses"] + stats["coalesced"] + hits
                >= self.N_CLIENTS
            )
            assert stats["cache_misses"] == self.N_DISTINCT
            # a served design passes the independent verifier
            served = next(r for r in results if not r["cache_hit"])
            record = srv.jobs.get(served["id"])
            assert record is not None and record.spec is not None
            design_path = tmp_path / "served_design.json"
            design_path.write_text(json.dumps(record.spec.design))
            check = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "check",
                    "--design",
                    str(design_path),
                    "--strict",
                ],
                capture_output=True,
                text=True,
                env={
                    "PYTHONPATH": str(
                        Path(__file__).resolve().parents[1] / "src"
                    ),
                    "PATH": "/usr/bin:/bin",
                },
                timeout=120,
            )
            assert check.returncode == 0, check.stdout + check.stderr
            assert "CLEAN" in check.stdout.upper() or not check.returncode
        finally:
            srv.stop(drain=False)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeCli:
    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--workers",
                "3",
                "--cache-size",
                "16",
                "--queue-size",
                "8",
            ]
        )
        assert args.port == 0
        assert args.workers == 3
        assert args.cache_size == 16
        assert args.func.__name__ == "_cmd_serve"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--timeout", "0"],
            ["--timeout", "-1"],
            ["--retries", "1"],
            ["--workers", "0"],
            ["--cache-size", "0"],
            ["--queue-size", "0"],
            ["--port", "-1"],
            ["--port", "70000"],
        ],
        ids=[
            "timeout-zero",
            "timeout-negative",
            "retries",
            "workers-zero",
            "cache-size-zero",
            "queue-size-zero",
            "port-negative",
            "port-too-large",
        ],
    )
    def test_parser_rejects(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *argv])
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err
