"""``repro serve`` with a host-speed sampler beside it.

:func:`serveload.child_server` runs ``python3 serve_child.py SERVE-ARGS``
with the program's ``src`` on ``PYTHONPATH``.  A daemon thread samples
the host's speed (:class:`stats.SpeedTimeline`) inside the server
process, where requests are served, from before the program is imported
until the server stops.  The samples are then printed as the last line
of standard output, for the benchmark to calibrate boot time and every
request latency with.
"""

from __future__ import annotations

import json
import sys
import threading

import stats


def _sample(timeline: stats.SpeedTimeline, stop: threading.Event) -> None:
    while not stop.wait(stats.SAMPLE_INTERVAL_S):
        timeline.sample()


def main(argv: list[str]) -> int:
    timeline = stats.SpeedTimeline()
    stop = threading.Event()
    timeline.sample()
    sampler = threading.Thread(target=_sample, args=(timeline, stop), daemon=True)
    sampler.start()
    from repro.cli import main as repro_main

    code = repro_main(["serve", *argv])
    stop.set()
    sampler.join()
    print(json.dumps({"stamps": timeline.stamps, "samples": timeline.samples}),
          flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
