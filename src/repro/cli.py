"""Command-line interface.

The subcommands cover the common library entry points::

    python -m repro suite   --name ami33 --out ami33.json
    python -m repro flow    --suite ami33 --flow overcell --svg out.svg
    python -m repro route   --suite ami33 --planes 2 --svg out.svg
    python -m repro tables  --suite ami33
    python -m repro profile --suite ami33 --flow overcell --out profile.json
    python -m repro check   --suite ami33 --flow overcell --planes 2
    python -m repro dispatch --jobs 4 --check

``flow`` accepts either ``--suite <name>`` (a built-in synthetic
benchmark) or ``--design <file.json>`` (a design written by
``repro.io.save_design``), runs the requested flow, prints the summary
line, and optionally writes an SVG plot and/or a JSON result summary.
``route`` is the over-cell flow with plane-labelled output: ``--planes
N`` routes level B across N reserved-layer pairs (docs/LAYERS.md) and
reports how the nets distributed over them; its SVG plot carries the
per-plane legend.
``profile`` runs a flow inside an ``instrument.collecting()`` block and
exports the span tree / counters / events (see docs/OBSERVABILITY.md).
``check`` runs a flow and then the independent verification engine
(``repro.check``) over its output, printing every violation and
exiting nonzero when any is found (see docs/VERIFICATION.md).
``dispatch`` fans a batch of suite x flow jobs across a worker pool
(``repro.dispatch``; see docs/PARALLELISM.md) and exits zero only when
every job completes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

from repro.bench_suite import SUITES
from repro.flow import FLOWS, multilayer_channel_flow, overcell_flow, two_layer_flow
from repro.io import flow_result_to_dict, load_design, save_design
from repro.reporting import (
    format_table,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.reporting.tables import TABLE1_HEADERS, TABLE2_HEADERS, TABLE3_HEADERS
from repro.viz.svg import svg_flow_result


def _load_design_arg(args: argparse.Namespace):
    if args.design:
        return load_design(args.design)
    if args.suite:
        return SUITES[args.suite]()
    raise SystemExit("one of --suite or --design is required")


def _flow_params(args: argparse.Namespace):
    """FlowParams from the flags :func:`_add_flow_args` declares."""
    from repro.flow import FlowParams
    from repro.io import load_technology

    params = FlowParams(
        planes=args.planes,
        iterate=args.iterate,
        max_iterations=args.max_iterations,
        ordering_policy=args.ordering_policy,
        objective=args.objective,
    )
    if args.tech:
        return replace(params, technology=load_technology(args.tech))
    return params


def _seconds(text: str) -> float:
    """A ``--timeout`` value: a positive, finite number of seconds."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}"
        )
    return value


def _at_least(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse type for integers no smaller than ``low`` (and no
    larger than ``high``, if given)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(
                f"must be an {parse.__name__}, got {text!r}"
            )
        return value

    parse.__name__ = (
        f"integer >= {low}" if high is None else f"integer in [{low}, {high}]"
    )
    return parse


def _output(path: str) -> Path:
    """An output file's path, its directory created first.

    Every file the CLI writes goes through here, so an output path in
    a directory that does not exist yet never costs a finished run.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_suite(args: argparse.Namespace) -> int:
    design = SUITES[args.name]()
    save_design(design, _output(args.out))
    print(f"wrote {design.stats()} to {args.out}")
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    design = _load_design_arg(args)
    result = FLOWS[args.flow](design, _flow_params(args))
    print(result.summary())
    if args.svg:
        _output(args.svg).write_text(svg_flow_result(result))
        print(f"layout plot written to {args.svg}")
    if args.json:
        _output(args.json).write_text(
            json.dumps(flow_result_to_dict(result), indent=2)
        )
        print(f"result summary written to {args.json}")
    return 0 if result.completion == 1.0 else 1


def _cmd_route(args: argparse.Namespace) -> int:
    """Over-cell flow with plane-labelled output (``--planes N``)."""
    design = _load_design_arg(args)
    result = overcell_flow(design, _flow_params(args))
    print(result.summary())
    levelb = result.levelb
    if levelb is not None:
        for p, label in enumerate(levelb.plane_labels()):
            print(f"  plane {p} ({label}): {len(levelb.nets_on_plane(p))} nets")
    iterate = result.notes.get("iterate")
    if iterate is not None:
        status = "converged" if iterate["converged"] else (
            "stalled" if iterate["stalled"] else "budget exhausted"
        )
        print(
            f"  iterate: {iterate['iterations']} pass(es), {status} "
            f"(policy {iterate['policy']})"
        )
    if args.svg:
        _output(args.svg).write_text(svg_flow_result(result, legend=True))
        print(f"layout plot written to {args.svg}")
    if args.json:
        _output(args.json).write_text(
            json.dumps(flow_result_to_dict(result), indent=2)
        )
        print(f"result summary written to {args.json}")
    return 0 if result.completion == 1.0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import routing_report

    design = _load_design_arg(args)
    result = FLOWS[args.flow](design, _flow_params(args))
    print(routing_report(result, top_n=args.top))
    if args.html:
        from repro.reporting import html_report

        _output(args.html).write_text(html_report(result, top_n=args.top))
        print(f"HTML report written to {args.html}")
    return 0 if result.completion == 1.0 else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one flow with instrumentation on and export the profile."""
    from repro import instrument

    design = _load_design_arg(args)
    params = _flow_params(args)
    with instrument.collecting() as col:
        result = FLOWS[args.flow](design, params)
    print(result.summary())
    instrument.write_json(str(_output(args.out)), col)
    print(f"profile written to {args.out}")
    if args.csv:
        for kind, render in (
            ("counters", instrument.counters_to_csv),
            ("spans", instrument.spans_to_csv),
            ("events", instrument.events_to_csv),
        ):
            path = f"{args.csv}.{kind}.csv"
            _output(path).write_text(render(col))
            print(f"{kind} written to {path}")
    print(instrument.tree_report(col))
    return 0 if result.completion == 1.0 else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """Run a flow, verify its output independently, gate on violations."""
    from repro.check import check_flow

    design = _load_design_arg(args)
    result = FLOWS[args.flow](design, _flow_params(args))
    print(result.summary())
    report = check_flow(result)
    print(report.render(limit=args.limit))
    if args.json:
        _output(args.json).write_text(json.dumps(report.to_dict(), indent=2))
        print(f"check report written to {args.json}")
    if args.strict and report.violations:
        return 1
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the project-contract static analyzer (repro.lint)."""
    import repro
    from repro.lint import lint_paths, rules_for_ids

    if args.list_rules:
        from repro.lint import ALL_RULES

        width = max(len(r.rule_id) for r in ALL_RULES)
        for rule in sorted(ALL_RULES, key=lambda r: r.rule_id):
            print(f"{rule.rule_id:<{width}}  {rule.contract}")
        print(f"{'lint.pragma':<{width}}  Suppression pragmas carry a "
              "reason and match a live finding (engine-owned).")
        return 0

    pkg_dir = Path(repro.__file__).resolve().parent
    default_root = pkg_dir.parent.parent
    root = Path(args.root).resolve() if args.root else default_root
    paths = (
        [Path(p) for p in args.paths] if args.paths else [pkg_dir]
    )
    select = set(args.select) if args.select else None
    if select is not None:
        try:
            rules_for_ids(select)  # fail fast on typos, before parsing files
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2

    report = lint_paths(paths, root=root, select=select)
    if args.json:
        _output(args.json).write_text(json.dumps(report.to_dict(), indent=2))
        print(f"lint report written to {args.json}")
    print(report.render(limit=args.limit))
    if args.strict and report.violations:
        return 1
    return 0 if report.ok else 1


def _cmd_dispatch(args: argparse.Namespace) -> int:
    """Fan suite x flow jobs across a worker pool (repro.dispatch)."""
    from repro.dispatch import run_suite_batch

    report = run_suite_batch(
        args.suites or sorted(SUITES),
        args.flows or ["overcell"],
        workers=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        check=args.check,
    )
    print(report.render())
    if args.json:
        _output(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
        print(f"batch report written to {args.json}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent routing server (repro.serve)."""
    from repro.serve import RoutingServer

    server = RoutingServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        timeout_s=args.timeout,
        queue_size=args.queue_size,
    )
    server.start()
    # flush immediately: supervisors and scripts read the bound address
    # from the first line even when stdout is a pipe
    print(f"serving on {server.address} ({args.workers} workers)", flush=True)
    print(
        "POST /jobs to submit, GET /stats for counters; "
        "Ctrl-C to drain and stop",
        flush=True,
    )
    try:
        while not server.wait_stopped(timeout_s=1.0):
            pass
    except KeyboardInterrupt:
        print("\ndraining...")
        server.stop(drain=True)
    print("server stopped")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    design = _load_design_arg(args)
    baseline = two_layer_flow(design)
    overcell = overcell_flow(design)
    ml = multilayer_channel_flow(design)
    print("Table 1 - example information")
    print(format_table(TABLE1_HEADERS, table1_rows(design, overcell)))
    print("\nTable 2 - % reduction vs two-layer channel routing")
    print(format_table(TABLE2_HEADERS, table2_rows(baseline, overcell)))
    print("\nTable 3 - vs optimistic 4-layer channel model")
    print(format_table(TABLE3_HEADERS, table3_rows(ml, overcell)))
    return 0


def _add_flow_args(parser: argparse.ArgumentParser, *, flow: bool = True) -> None:
    """The design, technology and level B flags of the five
    flow-running commands; ``flow=False`` leaves out ``--flow``."""
    from repro.core.ordering import POLICIES

    parser.add_argument("--suite", choices=sorted(SUITES))
    parser.add_argument("--design", help="design JSON (repro.io format)")
    if flow:
        parser.add_argument("--flow", choices=sorted(FLOWS), default="overcell")
    parser.add_argument("--tech", help="technology JSON (repro.io format)")
    parser.add_argument(
        "--planes", type=_at_least(1), default=1,
        help="over-cell routing planes for level B (default 1)",
    )
    parser.add_argument(
        "--iterate",
        action="store_true",
        help="negotiated-congestion rip-up-and-re-route for level B "
        "(docs/ITERATION.md)",
    )
    parser.add_argument(
        "--max-iterations",
        type=_at_least(0),
        default=8,
        help="re-route pass budget with --iterate (default 8)",
    )
    parser.add_argument(
        "--ordering-policy",
        choices=sorted(POLICIES),
        default="longest-first",
        help="level B net-ordering policy, one-pass or with --iterate "
        "(default longest-first)",
    )
    parser.add_argument(
        "--objective",
        choices=("wire", "vias"),
        default="wire",
        help="level B routing objective (docs/TECHNOLOGY.md; "
        "default wire)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Over-cell multi-layer router (Katsadas & Chen, DAC 1990)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="generate a synthetic benchmark")
    p_suite.add_argument("--name", choices=sorted(SUITES), required=True)
    p_suite.add_argument("--out", required=True, help="output JSON path")
    p_suite.set_defaults(func=_cmd_suite)

    p_flow = sub.add_parser("flow", help="run one routing flow")
    _add_flow_args(p_flow)
    p_flow.add_argument("--svg", help="write an SVG layout plot")
    p_flow.add_argument("--json", help="write a JSON result summary")
    p_flow.set_defaults(func=_cmd_flow)

    p_route = sub.add_parser(
        "route",
        help="over-cell flow with per-plane output (see docs/LAYERS.md)",
    )
    _add_flow_args(p_route, flow=False)
    p_route.add_argument(
        "--svg", help="write an SVG layout plot with the plane legend"
    )
    p_route.add_argument("--json", help="write a JSON result summary")
    p_route.set_defaults(func=_cmd_route)

    p_prof = sub.add_parser(
        "profile",
        help="run a flow with instrumentation and export the profile",
    )
    _add_flow_args(p_prof)
    p_prof.add_argument(
        "--out", required=True, help="output profile JSON path"
    )
    p_prof.add_argument(
        "--csv",
        help="also write <prefix>.{counters,spans,events}.csv files",
        metavar="PREFIX",
    )
    p_prof.set_defaults(func=_cmd_profile)

    p_check = sub.add_parser(
        "check",
        help="run a flow and verify its output with the static checker",
    )
    _add_flow_args(p_check)
    p_check.add_argument("--json", help="write the check report as JSON")
    p_check.add_argument(
        "--limit", type=_at_least(0), default=50, help="violations to print"
    )
    p_check.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on warnings too, not just errors",
    )
    p_check.set_defaults(func=_cmd_check)

    p_lint = sub.add_parser(
        "lint",
        help="statically verify the source tree's project contracts",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to scan (default: the repro package)",
    )
    p_lint.add_argument(
        "--root", help="project root for relative paths/module names"
    )
    p_lint.add_argument(
        "--rule",
        "--select",
        dest="select",
        action="append",
        metavar="RULE",
        help="rule id (det.clock) or group (det); repeatable",
    )
    p_lint.add_argument("--json", help="write the lint report as JSON")
    p_lint.add_argument(
        "--limit", type=_at_least(0), default=50, help="violations to print"
    )
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on warnings too, not just errors",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_disp = sub.add_parser(
        "dispatch",
        help="route a batch of suite x flow jobs across a worker pool",
    )
    p_disp.add_argument(
        "--suites",
        nargs="+",
        choices=sorted(SUITES),
        help="suites to route (default: all built-in suites)",
    )
    p_disp.add_argument(
        "--flows",
        nargs="+",
        choices=sorted(FLOWS),
        help="flows to run per suite (default: overcell)",
    )
    p_disp.add_argument(
        "--jobs", type=_at_least(1), default=2,
        help="worker processes (default 2; 1 runs jobs in-line)",
    )
    p_disp.add_argument(
        "--timeout", type=_seconds, default=None, help="per-job deadline (s)"
    )
    p_disp.add_argument(
        "--retries", type=_at_least(0), default=1, help="retries per crashed job"
    )
    p_disp.add_argument(
        "--check",
        action="store_true",
        help="verify each flow's output with repro.check",
    )
    p_disp.add_argument("--json", help="write the batch report as JSON")
    p_disp.set_defaults(func=_cmd_dispatch)

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent routing server (repro.serve)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=_at_least(0, 65535), default=8787,
        help="0 binds an ephemeral port"
    )
    p_serve.add_argument(
        "--workers", type=_at_least(1), default=2, help="routing worker threads"
    )
    p_serve.add_argument(
        "--cache-size", type=_at_least(1), default=256,
        help="max entries in the content-addressed result cache",
    )
    p_serve.add_argument(
        "--timeout", type=_seconds, default=None, help="per-job deadline (s)"
    )
    p_serve.add_argument(
        "--queue-size", type=_at_least(1), default=64,
        help="max queued jobs before submissions get 503",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_tables = sub.add_parser("tables", help="print the paper's tables")
    p_tables.add_argument("--suite", choices=sorted(SUITES))
    p_tables.add_argument("--design", help="design JSON (repro.io format)")
    p_tables.set_defaults(func=_cmd_tables)

    p_report = sub.add_parser(
        "report", help="run a flow and print the full routing report"
    )
    _add_flow_args(p_report)
    p_report.add_argument("--top", type=_at_least(0), default=5,
                          help="slowest pins to list")
    p_report.add_argument("--html", help="also write a single-file HTML report")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
