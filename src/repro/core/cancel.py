"""Cooperative deadlines for level B routing.

:func:`deadline` binds a :class:`threading.Event` to the calling thread
and arms a :class:`threading.Timer` that sets it.  Level B calls
:func:`checkpoint` before each net, before each search window and once
per round of the Lee wave; it raises :class:`RouteCancelled` once the event
is set.  The binding is per thread, like
:func:`repro.instrument.thread_collecting`, so no parameter carries it.
A cancelled router is spent (its grid may hold a half-routed net).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from collections.abc import Iterator

__all__ = ["RouteCancelled", "checkpoint", "deadline"]

_local = threading.local()


class RouteCancelled(Exception):
    """The calling thread's deadline passed at a level B checkpoint."""


@contextmanager
def deadline(seconds: float | None) -> Iterator[threading.Event | None]:
    """Cancel level B routing on this thread after ``seconds``.

    Yields the bound event (setting it cancels at once); ``None``
    binds nothing and yields ``None``.  The innermost binding is the
    one checked, and the previous one is restored on exit.
    """
    if seconds is None:
        yield None
        return
    event = threading.Event()
    timer = threading.Timer(seconds, event.set)
    timer.daemon = True
    previous = getattr(_local, "event", None)
    _local.event = event
    timer.start()
    try:
        yield event
    finally:
        timer.cancel()
        _local.event = previous


def checkpoint() -> None:
    """Raise :class:`RouteCancelled` if this thread's deadline passed."""
    event = getattr(_local, "event", None)
    if event is not None and event.is_set():
        raise RouteCancelled("deadline passed")
