"""The async job queue: records, per-job event buffers, worker pool.

Submission is non-blocking: :meth:`JobQueue.submit` either answers
immediately from the result cache, *coalesces* onto an identical
in-flight job (single-flight: concurrent duplicates route once), or
builds the design and enqueues a new :class:`JobRecord` on a bounded
queue.  Worker threads drain the queue and run each job in-line, once,
through :func:`~repro.serve.protocol.execute_spec`.  With
``timeout_s`` set the run is wrapped in a
:func:`repro.core.cancel.deadline`: level B stops at its next
checkpoint once the deadline passes, and the job fails with
``timed_out`` set while the worker moves on to the next one.

Each record owns an :class:`EventBuffer`.  The worker runs the flow
under a per-thread :func:`repro.instrument.thread_collecting` collector
subscribed into that buffer, so every structured instrument event the
routing stack emits (``net.routed``, ``ripup``, ...) appears in the
buffer *live*, interleaved with the queue's own ``serve.job_state``
transitions.  HTTP clients long-poll or stream the buffer
(docs/SERVING.md).

Shutdown is graceful by default: :meth:`JobQueue.close` stops intake,
lets workers drain everything already queued, and joins them.  With
``drain=False`` the queued-but-unstarted jobs fail fast with a
``server shutdown`` error instead.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any

from repro import instrument
from repro.core.cancel import RouteCancelled, deadline
from repro.dispatch.jobs import summary_ok
from repro.instrument.names import (
    EVT_SERVE_JOB_STATE,
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    SERVE_COALESCED,
    SERVE_JOBS_COMPLETED,
    SERVE_JOBS_FAILED,
    SERVE_JOBS_SUBMITTED,
)
from repro.serve.cache import ResultCache
from repro.serve.protocol import JobSpec, build_design, execute_spec

__all__ = ["EventBuffer", "JobQueue", "JobRecord", "QueueClosed", "QueueFull"]

JOB_STATES = ("queued", "running", "done", "failed")

#: Events one job's buffer keeps; later ones are dropped and counted.
MAX_EVENTS = 10_000


class QueueFull(RuntimeError):
    """The bounded submission queue is at capacity (HTTP 503)."""


class QueueClosed(RuntimeError):
    """The server is shutting down and refuses new work (HTTP 503)."""


class EventBuffer:
    """Append-only, closeable event log with blocking reads.

    Writers (the instrument subscription and the queue's state
    transitions) append dicts; readers page through by index with an
    optional wait, so one buffer serves both polling
    (``/jobs/<id>/events``) and streaming (``/jobs/<id>/stream``)
    clients.  A :data:`MAX_EVENTS` cap bounds memory on pathological
    jobs: overflow drops the *newest* events and counts them, keeping
    indices stable for readers already mid-stream.
    """

    def __init__(self) -> None:
        self._events: list[dict[str, Any]] = []
        self._cond = threading.Condition()
        self._closed = False
        self.dropped = 0

    @property
    def closed(self) -> bool:
        return self._closed

    def append(self, record: dict[str, Any]) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._events) >= MAX_EVENTS:
                self.dropped += 1
                return
            self._events.append(record)
            self._cond.notify_all()

    def extend(self, records: list[dict[str, Any]]) -> None:
        for record in records:
            self.append(record)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._events)

    def read(
        self, since: int = 0, wait_s: float | None = None
    ) -> tuple[list[dict[str, Any]], int, bool]:
        """Events from index ``since`` on: ``(events, next, closed)``.

        With ``wait_s`` and nothing new, blocks until an event lands,
        the buffer closes, or the wait elapses — the long-poll
        primitive.  ``next`` is the index to pass on the next call.
        """
        deadline = None if wait_s is None else time.monotonic() + wait_s
        with self._cond:
            while (
                since >= len(self._events)
                and not self._closed
                and deadline is not None
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            events = self._events[since:]
            return events, since + len(events), self._closed

    def snapshot(self) -> list[dict[str, Any]]:
        with self._cond:
            return list(self._events)


class JobRecord:
    """One submitted job's full lifecycle, visible to HTTP handlers."""

    def __init__(self, job_id: str, spec: JobSpec, digest: str) -> None:
        self.id = job_id
        self.spec = spec
        self.digest = digest
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.ok: bool | None = None
        self.error: str | None = None
        self.cache_hit = False
        self.coalesced = False
        self.payload: dict[str, Any] | None = None
        self.events = EventBuffer()
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def _note_state(self, state: str, **fields: Any) -> None:
        """Record a state transition: event buffer + global instrument."""
        # repro: allow[serve.lock] EventBuffer.append synchronizes internally on its own Condition; no JobRecord state is touched here
        self.events.append(
            {
                "event": EVT_SERVE_JOB_STATE,
                "job": self.id,
                "state": state,
                "ts": round(time.time(), 6),
                **fields,
            }
        )
        instrument.event(
            EVT_SERVE_JOB_STATE, job=self.id, state=state, **fields
        )

    def set_state(self, state: str, **fields: Any) -> None:
        with self._cond:
            self.state = state
            self._cond.notify_all()
        self._note_state(state, **fields)

    def wait(self, timeout_s: float | None = None) -> bool:
        """Block until the job is terminal; True when it is."""
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        with self._cond:
            while not self.terminal:
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
            return self.terminal

    # ------------------------------------------------------------------
    def to_dict(self, include_result: bool = False) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "id": self.id,
            "digest": self.digest,
            "design": self.spec.design_name,
            "flow": self.spec.flow,
            "planes": self.spec.planes,
            "check": self.spec.check,
            "state": self.state,
            "ok": self.ok,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "error": self.error,
            "submitted_at": round(self.submitted_at, 6),
            "started_at": (
                round(self.started_at, 6) if self.started_at else None
            ),
            "finished_at": (
                round(self.finished_at, 6) if self.finished_at else None
            ),
            "events": len(self.events),
        }
        if include_result:
            doc["payload"] = self.payload
        return doc


class JobQueue:
    """Bounded async queue of routing jobs over a worker thread pool.

    ``timeout_s`` is each job's level B deadline, counted from the
    moment a worker starts it.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        cache: ResultCache | None = None,
        timeout_s: float | None = None,
        queue_size: int = 64,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.workers = max(1, workers)
        self.timeout_s = timeout_s
        self._queue: queue.Queue[tuple[JobRecord, Any] | None] = queue.Queue(
            maxsize=max(1, queue_size)
        )
        self._lock = threading.RLock()
        self._records: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._inflight: dict[str, JobRecord] = {}
        self._followers: dict[str, list[JobRecord]] = {}
        self._threads: list[threading.Thread] = []
        self._seq = 0
        self._closed = False
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "coalesced": 0,
        }

    # ------------------------------------------------------------------
    def start(self) -> None:
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            t.start()
            # repro: allow[serve.lock] startup hand-off: start() runs once on the owning thread before any worker or handler reads _threads
            self._threads.append(t)

    @property
    def closed(self) -> bool:
        return self._closed

    def depth(self) -> int:
        return self._queue.qsize()

    def _count(self, key: str, instrument_name: str | None = None) -> None:
        with self._lock:
            self.counters[key] += 1
        if instrument_name is not None:
            instrument.count(instrument_name)

    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Register a job: cache answer, coalesce, or enqueue.

        Raises :class:`QueueClosed` while shutting down and
        :class:`QueueFull` when the bounded queue is at capacity —
        callers map these to HTTP 503 so clients back off.  A spec
        holding a non-finite number, or a design that does not build,
        raises :class:`~repro.serve.protocol.SpecError`.  A refused
        request leaves no record and counts as no submission.

        The design is built with the lock released, so cache hits and
        readers never wait on a large inline design; the answer is
        then checked again, since a duplicate may have been queued or
        cached meanwhile.
        """
        digest = spec.digest()
        record = self._answer(spec, digest)
        if record is not None:
            return record
        design = build_design(spec)
        with self._lock:  # re-entrant: _answer and _register take it too
            record = self._answer(spec, digest, recheck=True)
            if record is not None:
                return record
            # Only submit enqueues jobs, under this lock, so the
            # put below cannot find the queue full.
            if self._queue.full():
                raise QueueFull(
                    f"job queue full ({self._queue.maxsize} pending)"
                )
            record = self._register(spec, digest)
            self.counters["cache_misses"] += 1
            instrument.count(SERVE_CACHE_MISSES)
            self._inflight[digest] = record
            self._queue.put_nowait((record, design))
            record._note_state("queued")
            return record

    def _answer(
        self, spec: JobSpec, digest: str, recheck: bool = False
    ) -> JobRecord | None:
        """A record answered from the cache or coalesced onto an
        in-flight duplicate, or None when the job must run.  A
        ``recheck`` peeks before its cache lookup, so the miss the
        first lookup counted is not counted twice."""
        with self._lock:
            if self._closed:
                raise QueueClosed("server is shutting down")
            cached = (
                None
                if recheck and not self.cache.peek(digest)
                else self.cache.get(digest)
            )
            if cached is not None:
                record = self._register(spec, digest)
                self.counters["cache_hits"] += 1
                instrument.count(SERVE_CACHE_HITS)
                self._resolve_from_cache(record, cached)
                return record
            primary = self._inflight.get(digest)
            if primary is None or primary.terminal:
                return None
            record = self._register(spec, digest)
            record.coalesced = True
            self.counters["coalesced"] += 1
            instrument.count(SERVE_COALESCED)
            self._followers.setdefault(digest, []).append(record)
            record.set_state(primary.state, coalesced_onto=primary.id)
            return record

    def _register(self, spec: JobSpec, digest: str) -> JobRecord:
        """A new record, listed and counted as submitted."""
        with self._lock:
            self._seq += 1
            record = JobRecord(f"j{self._seq:06d}", spec, digest)
            self._records[record.id] = record
            self._order.append(record.id)
            self.counters["submitted"] += 1
        instrument.count(SERVE_JOBS_SUBMITTED)
        return record

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    def list_records(self, limit: int = 100) -> list[JobRecord]:
        with self._lock:
            ids = self._order[-limit:]
            return [self._records[i] for i in ids]

    def stats(self) -> dict[str, Any]:
        with self._lock:
            by_state: dict[str, int] = {s: 0 for s in JOB_STATES}
            for record in self._records.values():
                by_state[record.state] += 1
        return {
            "counters": dict(self.counters),
            "jobs_by_state": by_state,
            "queue_depth": self.depth(),
            "workers": self.workers,
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    def _resolve_from_cache(
        self, record: JobRecord, payload: dict[str, Any]
    ) -> None:
        record.cache_hit = True
        record.ok = True
        record.payload = payload
        record.started_at = record.finished_at = time.time()
        record.set_state("done", cache_hit=True)
        record.events.close()

    def _resolve_followers(
        self, digest: str, primary: JobRecord
    ) -> None:
        """Copy the primary's outcome onto coalesced duplicates.

        Coalesced requests were answered by one routing run instead of
        their own — that is a cache hit in everything but timing, and
        is counted as one.
        """
        with self._lock:
            followers = self._followers.pop(digest, [])
            # A duplicate submitted after the primary went terminal may
            # already have re-registered this digest as a fresh
            # primary; only remove our own entry.
            if self._inflight.get(digest) is primary:
                del self._inflight[digest]
        primary_events = primary.events.snapshot()
        for follower in followers:
            follower.ok = primary.ok
            follower.error = primary.error
            follower.payload = primary.payload
            follower.cache_hit = primary.ok is True
            if follower.cache_hit:
                self._count("cache_hits", SERVE_CACHE_HITS)
            follower.started_at = primary.started_at
            follower.finished_at = primary.finished_at
            follower.events.extend(primary_events)
            follower.set_state(
                primary.state, coalesced_onto=primary.id
            )
            follower.events.close()

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                break
            try:
                self._execute(*item)
            finally:
                self._queue.task_done()

    def _execute(self, record: JobRecord, design: Any) -> None:
        record.started_at = time.time()
        record.set_state("running")
        collector = instrument.Collector()
        collector.subscribe(record.events.append)
        start = time.perf_counter()
        try:
            with (
                instrument.thread_collecting(collector),
                deadline(self.timeout_s),
            ):
                payload = execute_spec(record.spec, design)
        except RouteCancelled:
            self._fail(record, f"timed out after {self.timeout_s}s", True)
            return
        except Exception as exc:
            self._fail(record, f"{type(exc).__name__}: {exc}", False)
            return
        record.ok = summary_ok(payload, record.spec.check)
        record.payload = payload
        record.finished_at = time.time()
        if record.ok:
            self.cache.put(record.digest, payload)
        self._count("completed", SERVE_JOBS_COMPLETED)
        record.set_state(
            "done",
            ok=record.ok,
            elapsed_s=round(time.perf_counter() - start, 6),
        )
        record.events.close()
        self._resolve_followers(record.digest, record)

    def _fail(self, record: JobRecord, error: str, timed_out: bool) -> None:
        record.ok = False
        record.error = error
        record.finished_at = time.time()
        self._count("failed", SERVE_JOBS_FAILED)
        record.set_state("failed", error=error, timed_out=timed_out)
        record.events.close()
        self._resolve_followers(record.digest, record)

    # ------------------------------------------------------------------
    def close(
        self, drain: bool = True, timeout_s: float | None = None
    ) -> None:
        """Stop intake and shut the workers down.

        ``drain=True`` (default) lets queued jobs finish; otherwise
        unstarted jobs fail immediately with a shutdown error.  Join
        waits ``timeout_s`` per worker (daemon threads, so a hung job
        cannot wedge interpreter exit either way).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    continue
                self._fail(item[0], "server shutdown before start", False)
                self._queue.task_done()
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout=timeout_s)
