"""Shared result type and small statistics helpers."""

from __future__ import annotations

import bisect
import math
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any

Metrics = dict[str, tuple[float, str]]

#: Per-layer metrics only the serve workload can measure; the flow
#: workloads report them as 0 so every run prints the full per-layer set.
SERVE_LAYER: dict[str, str] = {
    "serve.hit_p50_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
}


@dataclass
class Outcome:
    """What one workload run measured and what its oracle found."""

    metrics: Metrics
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    detail: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its largest child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    # ru_maxrss is kilobytes on Linux and bytes on macOS.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def serve_only_zeros() -> Metrics:
    return {name: (0.0, unit) for name, unit in SERVE_LAYER.items()}


# ----------------------------------------------------------------------
# Calibrated time
# ----------------------------------------------------------------------
#: The reference snippet's duration on the nominal host; calibrated
#: seconds are seconds on a host that runs the snippet this fast.
NOMINAL_SNIPPET_S = 200e-6
#: Process CPU time between two speed samples.
SAMPLE_INTERVAL_S = 0.01
#: Neighbouring samples whose median gives the local speed.
SMOOTHING = 9


def _snippet() -> int:
    """Fixed pure-Python work (tuple keys, dict reads and writes).

    It shares no code with the program, so a change to the program
    cannot change its duration; only the host's speed can.
    """
    table: dict[tuple[int, int], int] = {}
    for i in range(1000):
        key = (i & 31, i >> 5)
        table[key] = table.get(key, 0) + i
    return len(table)


def time_snippet() -> float:
    start = time.perf_counter()
    _snippet()
    return time.perf_counter() - start


def calibrate(metrics: Metrics, factor: float) -> Metrics:
    """Scale every time (and rate) in ``metrics`` to calibrated seconds."""
    scale = {"s": factor, "us": factor, "1/s": 1 / factor}
    return {name: (value * scale.get(unit, 1.0), unit)
            for name, (value, unit) in metrics.items()}


class SpeedTimeline:
    """The host's speed over time, sampled with the reference snippet.

    Shared 2-CPU hosts change speed by up to 2x within seconds, which
    swamps a change to the program.  Each sample times the snippet;
    :meth:`seconds` converts a wall-clock interval to calibrated
    seconds stretch by stretch: each sample speaks for the wall time
    nearest to it, at ``NOMINAL_SNIPPET_S`` over the median duration of
    the ``SMOOTHING`` samples around it (one slow snippet is noise).  A
    host running at half speed doubles both the interval and the
    snippet, so the calibrated time stays put.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        self.stamps.append(time.perf_counter())
        self.samples.append(time_snippet())

    def seconds(self, start: float, end: float) -> float:
        if not self.samples:
            self.sample()
        half = SMOOTHING // 2
        cuts = [(a + b) / 2 for a, b in zip(self.stamps, self.stamps[1:])]
        first = bisect.bisect_right(cuts, start)
        total = 0.0
        for i in range(first, len(self.samples)):
            lo = max(start, cuts[i - 1]) if i else start
            hi = min(end, cuts[i]) if i < len(cuts) else end
            if hi <= lo:
                break
            local = statistics.median(self.samples[max(0, i - half): i + half + 1])
            total += (hi - lo) * NOMINAL_SNIPPET_S / local
        return total


class Calibrated:
    """Wall time of a ``with`` block, also in calibrated seconds.

    While the block runs, a profiling timer interrupts it every
    ``SAMPLE_INTERVAL_S`` of CPU time to sample a :class:`SpeedTimeline`.
    Sampling costs about 2 % of the block.  Must be entered on the main
    thread (signal handlers run there).
    """

    def __init__(self) -> None:
        self.timeline = SpeedTimeline()
        self.wall_s = 0.0
        self.seconds = 0.0

    def _on_signal(self, signum: int, frame: Any) -> None:
        self.timeline.sample()

    def __enter__(self) -> "Calibrated":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.wall_s = end - self._start
        self.seconds = self.timeline.seconds(self._start, end)
