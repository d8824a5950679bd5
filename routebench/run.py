"""routebench: the router's benchmark.

Run from the repository root::

    python3 routebench/run.py --workload suites --seed 0 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``suites``     ami33, xerox and ex3 through ``overcell_flow`` (one pass,
               serial, dense backend, default technology).
``congested``  dense-quick and dense-full with
               ``FlowParams(iterate=True, ordering_policy="congestion")``.
``wide``       wide-quick and wide-full under the wide stackup with
               ``planes=2`` and ``objective="wire"``.
``serve``      a closed loop of client threads against ``repro serve``.

``--trace 0`` measures with tracing off and prints every end-to-end
metric.  ``--trace 1`` runs the same inputs once untraced and once with
every layer function wrapped (:mod:`tracer`) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--out``
also writes it, with per-design digests and counters, for
``routebench/compare.py``.

The seed decides the order of a flow workload's designs and the serve
request sequence; ``--redraw`` also re-draws every design from its
recipe (for checking a claim on designs it was not tuned on; costs are
not comparable across seeds then).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suites", "congested", "wide", "serve")


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--redraw", action="store_true",
                        help="re-draw every design from its recipe and the seed")
    parser.add_argument("--out", help="also write the result and details here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"routebench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import stats

    with stats.Calibrated() as clock:
        import repro.check  # noqa: F401  - the program's import cost is set-up
        import repro.flow  # noqa: F401
        if args.workload == "serve":
            import repro.serve  # noqa: F401
    import_s = clock.seconds

    import flows
    import serveload

    if args.workload == "serve" and args.trace:
        outcome = serveload.run_traced(args.seed, args.redraw)
    elif args.workload == "serve":
        # The request plan is fixed, so --seconds does not change its length.
        outcome = serveload.run(args.seed, import_s, args.redraw)
    elif args.trace:
        outcome = flows.run_traced(args.workload, args.seed, args.redraw)
    else:
        outcome = flows.run(
            args.workload, args.seed, args.seconds, import_s, args.redraw
        )
    if not args.trace:
        outcome.metrics["success_rate"] = (
            1.0 - outcome.failed / outcome.attempted, "ratio")

    declared = _declared(args.trace)
    reported = {k: unit for k, (_, unit) in outcome.metrics.items()}
    if reported != declared:
        print(f"routebench: reported metrics {sorted(reported.items())} "
              f"differ from BENCHMARK.json {sorted(declared.items())}",
              file=sys.stderr)
        return 3

    for problem in outcome.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    for name in sorted(outcome.metrics):
        value, unit = outcome.metrics[name]
        print(f"{args.workload:10s} {name:32s} {value:>16.6g} {unit}")
    line = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "redraw": args.redraw,
            "result": line,
            "designs": outcome.detail,
            "counters": outcome.counters,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is salted per process, and the salt alone moved
        # the serve cache-hit median by a tenth between otherwise equal
        # runs: run this same process again with a fixed salt, which the
        # serve child inherits.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
