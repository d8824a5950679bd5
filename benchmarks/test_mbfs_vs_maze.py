"""Section 3's speed claim - MBFS vs maze-type algorithms.

Paper: "The proposed router adopts a different representation for the
solution space ... that results in faster completion of the
interconnections on the average when compared to maze type
algorithms."

Both routers here share the occupancy grid, net ordering, Steiner
decomposition and commit logic; they differ only in the per-connection
search (track-graph MBFS vs Lee/Dijkstra wave expansion).  Asserted
shape: on the same workload the MBFS creates far fewer search nodes
per connection and is faster in wall-clock terms.
"""

import time

from repro.bench_suite import section3_workload
from repro.core import LevelBConfig, LevelBRouter
from repro.maze import MazeRouter
from repro.reporting import format_table

from conftest import print_experiment


def route_with(router_cls, seed):
    design, bounds = section3_workload(seed)
    config = LevelBConfig(maze_fallback=False, max_ripups=0)
    router = router_cls(bounds, list(design.nets.values()), config=config)
    started = time.perf_counter()
    result = router.route()
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_mbfs_vs_maze(benchmark):
    seeds = (1, 2, 3)

    def run_all():
        out = {}
        for seed in seeds:
            out["mbfs", seed] = route_with(LevelBRouter, seed)
            out["maze", seed] = route_with(MazeRouter, seed)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    total = {"mbfs": [0, 0.0, 0], "maze": [0, 0.0, 0]}
    for engine in ("mbfs", "maze"):
        for seed in seeds:
            result, elapsed = results[engine, seed]
            conns = sum(len(r.connections) for r in result.routed)
            rows.append([
                engine, seed, conns,
                f"{result.completion_rate:.0%}",
                result.nodes_created,
                f"{elapsed * 1000:.0f}",
                result.total_wire_length,
            ])
            total[engine][0] += result.nodes_created
            total[engine][1] += elapsed
            total[engine][2] += result.total_wire_length
    print_experiment(
        "MBFS vs maze search (same occupancy model, same workload)",
        format_table(
            ["Engine", "Seed", "Conns", "Done", "Search nodes", "ms", "Wire"],
            rows,
        )
        + f"\n\ntotals: MBFS {total['mbfs'][0]:,} nodes / "
        f"{total['mbfs'][1]*1000:.0f} ms; "
        f"maze {total['maze'][0]:,} nodes / {total['maze'][1]*1000:.0f} ms",
    )
    # The paper's claim, on averages across the workload:
    assert total["mbfs"][0] < total["maze"][0], "MBFS must search fewer nodes"
    assert total["mbfs"][1] < total["maze"][1], "MBFS must be faster on average"
    # Quality stays comparable (within 25% total wire length).
    assert total["mbfs"][2] < 1.25 * total["maze"][2]
