"""The persistent HTTP front end: routing-as-a-service.

A stdlib-only :class:`~http.server.ThreadingHTTPServer` speaking a
small JSON protocol over the job queue (docs/SERVING.md):

===========================  ==========================================
``GET  /healthz``            liveness + drain state
``GET  /stats``              queue/cache/uptime counters
``POST /jobs``               submit a :class:`JobSpec` (202 + record)
``GET  /jobs``               recent job records (no payloads)
``GET  /jobs/<id>``          one record; ``?wait=S`` long-polls until
                             the job is terminal
``GET  /jobs/<id>/result``   the full result payload (409 until done)
``GET  /jobs/<id>/events``   progress events from ``?since=N``;
                             ``?wait=S`` long-polls for new ones
``GET  /jobs/<id>/stream``   live NDJSON event stream until the job
                             finishes (connection-close delimited)
``POST /shutdown``           graceful drain-and-stop
===========================  ==========================================

Handler threads only ever touch thread-safe queue/cache surfaces; the
routing work itself happens on the queue's worker threads, each under
its own instrument collector, so a slow request never blocks a fast
status poll.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro import instrument
from repro.instrument.names import SERVE_REQUESTS
# routebench's tracer wraps this module's canonical_digest by name.
from repro.io import canonical_digest  # noqa: F401
from repro.serve.cache import ResultCache
from repro.serve.jobqueue import JobQueue, JobRecord, QueueClosed, QueueFull
from repro.serve.protocol import PROTOCOL_VERSION, JobSpec, SpecError

__all__ = ["RoutingServer"]

_MAX_WAIT_S = 60.0
_MAX_BODY_BYTES = 32 * 1024 * 1024


class _Httpd(ThreadingHTTPServer):
    """Threaded HTTP server tuned for bursty client fan-in.

    The stock listen backlog (5) resets connections when dozens of
    clients connect in the same instant — the exact load shape the
    serve benchmarks produce — so raise it well past the worst burst.
    """

    daemon_threads = True
    request_queue_size = 128


def _clamp_wait(raw: list[str] | None) -> float | None:
    if not raw:
        return None
    try:
        return max(0.0, min(float(raw[0]), _MAX_WAIT_S))
    except ValueError:
        return None


class RoutingServer:
    """One long-lived serving process: HTTP front end + job queue.

    ``port=0`` binds an ephemeral port (read it back from ``port``
    after construction) — the test and benchmark harnesses rely on
    that to run many servers side by side.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        cache_size: int = 256,
        timeout_s: float | None = None,
        queue_size: int = 64,
    ) -> None:
        self.cache = ResultCache(cache_size)
        self.jobs = JobQueue(
            workers=workers,
            cache=self.cache,
            timeout_s=timeout_s,
            queue_size=queue_size,
        )
        handler = type("Handler", (_Handler,), {"app": self})
        self._httpd = _Httpd((host, port), handler)
        self._thread: threading.Thread | None = None
        self._stopped = threading.Event()
        self._stop_lock = threading.Lock()
        self.started_at = time.time()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]  # type: ignore[return-value]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self.jobs.closed

    def start(self) -> "RoutingServer":
        """Spawn the worker pool and the HTTP accept loop (non-blocking)."""
        self.jobs.start()
        # repro: allow[serve.lock] startup hand-off: assigned once by the owning thread before any handler thread exists; stop() joins through _stop_lock
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop intake, drain jobs, stop HTTP.

        New submissions are refused (503) the moment this is called;
        status/result/event endpoints keep answering while queued work
        drains, so clients watching a job see it through to a terminal
        state.  Idempotent and thread-safe.
        """
        with self._stop_lock:
            if self._stopped.is_set():
                return
            self.jobs.close(drain=drain)
            self._httpd.shutdown()
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            self._httpd.server_close()
            self._stopped.set()

    def wait_stopped(self, timeout_s: float | None = None) -> bool:
        return self._stopped.wait(timeout_s)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "format": "repro-serve-stats",
            "version": PROTOCOL_VERSION,
            "uptime_s": round(time.time() - self.started_at, 3),
            "draining": self.draining,
            "queue": self.jobs.stats(),
            "cache": self.cache.stats(),
        }


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs+paths onto the owning :class:`RoutingServer`."""

    app: RoutingServer  # bound by RoutingServer via a type() subclass
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        pass  # quiet by default; observability goes through instrument

    def _send_json(
        self, code: int, doc: dict[str, Any], *, close: bool = False
    ) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_json(self) -> dict[str, Any] | None:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            # The body cannot be framed, so the connection cannot be
            # reused either.
            self._send_json(
                400, {"error": "Content-Length must be an integer"}, close=True
            )
            return None
        if length <= 0:
            self._error(400, "request body required")
            return None
        if length > _MAX_BODY_BYTES:
            self._error(413, "request body too large")
            return None
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(doc, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return doc

    def _record_or_404(self, job_id: str) -> JobRecord | None:
        record = self.app.jobs.get(job_id)
        if record is None:
            self._error(404, f"unknown job {job_id!r}")
        return record

    # -- GET ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        instrument.count(SERVE_REQUESTS)
        url = urlparse(self.path)
        query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path == "/healthz":
                self._send_json(
                    200,
                    {
                        "ok": True,
                        "state": (
                            "draining" if self.app.draining else "serving"
                        ),
                        "uptime_s": round(
                            time.time() - self.app.started_at, 3
                        ),
                    },
                )
            elif url.path == "/stats":
                self._send_json(200, self.app.stats())
            elif url.path == "/jobs":
                records = self.app.jobs.list_records()
                self._send_json(
                    200, {"jobs": [r.to_dict() for r in records]}
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                self._get_job(parts[1], query)
            elif len(parts) == 3 and parts[0] == "jobs":
                record = self._record_or_404(parts[1])
                if record is None:
                    return
                if parts[2] == "result":
                    self._get_result(record)
                elif parts[2] == "events":
                    self._get_events(record, query)
                elif parts[2] == "stream":
                    self._stream_events(record, query)
                else:
                    self._error(404, f"unknown endpoint {url.path!r}")
            else:
                self._error(404, f"unknown endpoint {url.path!r}")
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to salvage

    def _get_job(self, job_id: str, query: dict[str, list[str]]) -> None:
        record = self._record_or_404(job_id)
        if record is None:
            return
        wait_s = _clamp_wait(query.get("wait"))
        if wait_s:
            record.wait(wait_s)
        self._send_json(200, record.to_dict())

    def _get_result(self, record: JobRecord) -> None:
        if not record.terminal:
            self._send_json(
                409,
                {
                    "error": "job not finished",
                    "id": record.id,
                    "state": record.state,
                },
            )
        elif record.payload is None:
            self._send_json(
                500,
                {
                    "error": record.error or "job produced no result",
                    "id": record.id,
                    "state": record.state,
                },
            )
        else:
            self._send_json(200, record.to_dict(include_result=True))

    def _get_events(
        self, record: JobRecord, query: dict[str, list[str]]
    ) -> None:
        try:
            since = max(0, int(query.get("since", ["0"])[0]))
        except ValueError:
            self._error(400, "'since' must be an integer")
            return
        wait_s = _clamp_wait(query.get("wait"))
        events, next_index, closed = record.events.read(since, wait_s)
        self._send_json(
            200,
            {
                "id": record.id,
                "events": events,
                "next": next_index,
                "done": closed and next_index >= len(record.events),
                "state": record.state,
            },
        )

    def _stream_events(
        self, record: JobRecord, query: dict[str, list[str]]
    ) -> None:
        """NDJSON live stream: one event per line until the job ends.

        Delimited by connection close (no chunked framing needed —
        ``http.client`` and curl both read to EOF), so the response
        advertises ``Connection: close``.
        """
        try:
            since = max(0, int(query.get("since", ["0"])[0]))
        except ValueError:
            self._error(400, "'since' must be an integer")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        index = since
        while True:
            events, index, closed = record.events.read(index, wait_s=1.0)
            for event in events:
                line = json.dumps(event, sort_keys=True) + "\n"
                self.wfile.write(line.encode("utf-8"))
            if events:
                self.wfile.flush()
            if closed and index >= len(record.events):
                break
        tail = {
            "event": "serve.stream_end",
            "id": record.id,
            "state": record.state,
            "ok": record.ok,
        }
        self.wfile.write(
            (json.dumps(tail, sort_keys=True) + "\n").encode("utf-8")
        )
        self.close_connection = True

    # -- POST -----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        instrument.count(SERVE_REQUESTS)
        url = urlparse(self.path)
        try:
            if url.path == "/jobs":
                self._post_job()
            elif url.path == "/shutdown":
                self._post_shutdown()
            else:
                self._error(404, f"unknown endpoint {url.path!r}")
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def _post_job(self) -> None:
        doc = self._read_json()
        if doc is None:
            return
        try:
            spec = JobSpec.from_dict(doc)
            record = self.app.jobs.submit(spec)
        except SpecError as exc:
            self._error(400, str(exc))
            return
        except QueueFull as exc:
            self._error(503, str(exc))
            return
        except QueueClosed as exc:
            self._error(503, str(exc))
            return
        code = 200 if record.cache_hit else 202
        self._send_json(code, record.to_dict())

    def _post_shutdown(self) -> None:
        drain = True
        if self.headers.get("Content-Length"):
            doc = self._read_json()
            if doc is None:
                return
            drain = doc.get("drain", True)
            if not isinstance(drain, bool):
                self._error(400, "'drain' must be a boolean")
                return
        self._send_json(
            200, {"ok": True, "draining": True, "drain": drain}, close=True
        )
        # Stop from a background thread: stop() joins the accept loop
        # and the workers, which must not happen on a handler thread
        # the client is still waiting on.
        threading.Thread(
            target=self.app.stop,
            kwargs={"drain": drain},
            name="serve-shutdown",
            daemon=True,
        ).start()
