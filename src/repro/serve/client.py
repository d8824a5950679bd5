"""Stdlib client for the serve protocol.

A thin :mod:`http.client` wrapper so tests, benchmarks, and scripts
can talk to a :class:`~repro.serve.server.RoutingServer` without any
third-party HTTP stack.  One :class:`ServeClient` opens a fresh
connection per request (the server is ThreadingHTTPServer — cheap
accepts, no pooling needed) and decodes every response as JSON.

``stream()`` is the exception: it holds its connection open and yields
NDJSON progress events as the server emits them, until the job's
stream closes.
"""

from __future__ import annotations

import http.client
import json
from collections.abc import Iterator
from typing import Any
from urllib.parse import urlencode


class ServeError(RuntimeError):
    """A non-2xx response from the server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServeClient:
    """Talk to a routing server at ``host:port``."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8787, *, timeout_s: float = 120.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )

    def _request(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        *,
        ok: tuple[int, ...] = (200, 202),
    ) -> dict[str, Any]:
        conn = self._connect()
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                doc = json.loads(raw) if raw else {}
            except ValueError:
                doc = {"error": raw.decode("utf-8", "replace")}
            if response.status not in ok:
                raise ServeError(
                    response.status, str(doc.get("error", doc))
                )
            if not isinstance(doc, dict):
                raise ServeError(response.status, "non-object response")
            doc["_status"] = response.status
            return doc
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def submit(self, spec: dict[str, Any]) -> dict[str, Any]:
        """POST a job spec; 202 queued or 200 answered from cache."""
        return self._request("POST", "/jobs", spec)

    def jobs(self) -> list[dict[str, Any]]:
        return list(self._request("GET", "/jobs")["jobs"])

    def status(
        self, job_id: str, *, wait_s: float | None = None
    ) -> dict[str, Any]:
        """One job's record; ``wait_s`` long-polls until terminal."""
        path = f"/jobs/{job_id}"
        if wait_s is not None:
            path += "?" + urlencode({"wait": wait_s})
        return self._request("GET", path)

    def result(self, job_id: str) -> dict[str, Any]:
        """The finished job's full payload (raises 409 while running)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def events(
        self, job_id: str, *, since: int = 0, wait_s: float | None = None
    ) -> dict[str, Any]:
        """A page of progress events from index ``since``."""
        params: dict[str, Any] = {"since": since}
        if wait_s is not None:
            params["wait"] = wait_s
        path = f"/jobs/{job_id}/events?" + urlencode(params)
        return self._request("GET", path)

    def stream(self, job_id: str, *, since: int = 0) -> Iterator[dict[str, Any]]:
        """Yield NDJSON progress events live until the stream ends."""
        conn = self._connect()
        try:
            conn.request("GET", f"/jobs/{job_id}/stream?since={since}")
            response = conn.getresponse()
            if response.status != 200:
                raw = response.read()
                try:
                    message = str(json.loads(raw).get("error", raw))
                except ValueError:
                    message = raw.decode("utf-8", "replace")
                raise ServeError(response.status, message)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def wait(self, job_id: str, *, timeout_s: float = 300.0) -> dict[str, Any]:
        """Long-poll until the job reaches a terminal state."""
        import time

        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"job {job_id} still running")
            record = self.status(job_id, wait_s=min(remaining, 30.0))
            if record.get("state") in ("done", "failed"):
                return record

    def shutdown(self, *, drain: bool = True) -> dict[str, Any]:
        return self._request("POST", "/shutdown", {"drain": drain})
