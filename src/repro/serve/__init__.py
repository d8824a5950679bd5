"""repro.serve — routing-as-a-service.

A persistent, stdlib-only serving layer over the routing stack: a
threaded HTTP server with an async job queue whose workers route each
job in-line under an optional deadline, a content-addressed LRU result
cache keyed on canonical request digests, and live progress streamed
from instrument events.
See docs/SERVING.md for the protocol and ``repro serve`` for the CLI
entry point.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobqueue import (
    EventBuffer,
    JobQueue,
    JobRecord,
    QueueClosed,
    QueueFull,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    JobSpec,
    SpecError,
    execute_spec,
)
from repro.serve.server import RoutingServer

__all__ = [
    "PROTOCOL_VERSION",
    "EventBuffer",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "QueueClosed",
    "QueueFull",
    "ResultCache",
    "RoutingServer",
    "ServeClient",
    "ServeError",
    "SpecError",
    "execute_spec",
]
