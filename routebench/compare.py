"""Compare two sets of routebench result files and print a delta table.

Usage, from the repository root::

    python3 routebench/run.py --workload suites --seed 1 --out base-1.json
    ...   # the same runs on the other commit, written to head-*.json
    python3 routebench/compare.py --base base-*.json --head head-*.json

Files are grouped by workload and trace mode; each side's median is
compared per metric and printed as one markdown table per group.

* A metric that is not a time, rate or memory figure and reads the same
  in every base run and every head run is deterministic (counts,
  quality figures, program counters): any difference between the sides
  is flagged as ``DRIFT``.
* A timing is judged against its ``bound`` in ``BENCHMARK.json``: worse
  by more than the bound is ``REGRESSED``, better by more than the
  bound is ``improved``.  Per-layer metrics have no bound and only show
  their delta.
* Per-design geometry digests and program counters must match exactly.

Exits 1 when anything drifted or regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Measurements that vary run to run even when the program does not.
NOISY_UNITS = {"s", "1/s", "us", "MB"}
NOISY_NAMES = {"trace.overhead_ratio", "trace.coverage", "serve.coalesced"}


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict[str, dict[str, Any]]:
    """Metric name -> its ``BENCHMARK.json`` entry (both groups)."""
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _group(records: list[dict[str, Any]]) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for record in records:
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def _values(records: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in records
            if name in r["result"]["metrics"]]


def _fingerprints(records: list[dict]) -> set[str]:
    """Digests and counters of every run, one string per distinct value."""
    return {
        json.dumps({"designs": {d: v.get("digest") for d, v in r["designs"].items()},
                    "counters": r["counters"]}, sort_keys=True)
        for r in records
    }


def compare_group(
    base: list[dict], head: list[dict], spec: dict[str, dict[str, Any]]
) -> tuple[list[list[str]], int]:
    """Table rows for one (workload, trace) group and its problem count."""
    rows, problems = [], 0
    names = sorted(set().union(*(r["result"]["metrics"] for r in base + head)))
    for name in names:
        b, h = _values(base, name), _values(head, name)
        if not b or not h:
            continue
        entry = spec.get(name, {})
        unit = entry.get("unit", "")
        b_med, h_med = statistics.median(b), statistics.median(h)
        delta = (h_med - b_med) / b_med if b_med else 0.0
        noisy = unit in NOISY_UNITS or name in NOISY_NAMES
        if not noisy and len(set(b)) == 1 and len(set(h)) == 1:
            verdict = "same" if b_med == h_med else "DRIFT"
        elif "bound" in entry:
            worse = delta if entry["better"] == "lower" else -delta
            if worse > entry["bound"]:
                verdict = "REGRESSED"
            elif -worse > entry["bound"]:
                verdict = "improved"
            else:
                verdict = f"within ±{entry['bound']:.0%}"
        else:
            verdict = ""
        problems += verdict in ("DRIFT", "REGRESSED")
        rows.append([name, unit, f"{b_med:.6g}", f"{h_med:.6g}",
                     f"{delta:+.1%}", verdict])
    b_fp, h_fp = _fingerprints(base), _fingerprints(head)
    if len(b_fp) == 1 and b_fp != h_fp:
        rows.append(["digests+counters", "", "", "", "", "DRIFT"])
        problems += 1
    return rows, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare routebench results")
    parser.add_argument("--base", nargs="+", required=True, type=Path)
    parser.add_argument("--head", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    base = _group([json.loads(p.read_text()) for p in args.base])
    head = _group([json.loads(p.read_text()) for p in args.head])
    problems = 0
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        rows, n = compare_group(base[key], head[key], spec)
        problems += n
        print(f"\n### {workload} ({'traced' if trace else 'untraced'}, "
              f"{len(base[key])} base / {len(head[key])} head runs)\n")
        print("| metric | unit | base | head | delta | verdict |")
        print("|---|---|---|---|---|---|")
        for row in rows:
            print("| " + " | ".join(row) + " |")
    for key in sorted(set(base) ^ set(head)):
        print(f"\n{key[0]} (trace {key[1]}) has runs on one side only")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
