"""Ablations of the design choices the paper calls out.

* Cost weights (section 3.2): sparse w2*=10 vs dense w2*=30 vs
  length-only - the corner-context terms exist to avoid blocking
  unrouted nets, so removing them must not *improve* completion.
* Net ordering (section 3): longest-distance-first vs alternatives,
  each a user sort key handed to ``LevelBRouter.route(order=...)``.
* The one-corner-per-track restriction (section 3.1), approximated by
  the per-track duplicate-entry budget: 1 vs the default 8.
* The Steiner-Prim multi-terminal heuristic vs a plain rectilinear
  MST on terminal positions (section 3.3's motivation).
"""

from repro.bench_suite import random_design
from repro.core import LevelBConfig, LevelBRouter
from repro.core.cost import CostWeights
from repro.geometry import Point
from repro.placement import RowPlacement
from repro.reporting import format_table
from repro.steiner import rectilinear_mst, steiner_prim_tree, tree_length

from conftest import print_experiment

SEEDS = (5, 6, 7)

#: The net orders the ordering ablation compares, as sort keys (smaller
#: routes first, ties broken on the net name).
ORDER_KEYS = {
    "longest-first": lambda n: (-n.half_perimeter, n.name),
    "shortest-first": lambda n: (n.half_perimeter, n.name),
    "most-pins-first": lambda n: (-n.degree, -n.half_perimeter, n.name),
    "name": lambda n: n.name,
}


def build_workload(seed, num_nets=44):
    design = random_design(
        f"abl{seed}", seed=seed, num_cells=12, num_nets=num_nets, num_critical=0
    )
    placement = RowPlacement.build(design, pitch=8)
    placement.realize([16] * placement.channel_count, margin=16)
    return design, design.cell_bounds().expanded(24)


def run_config(config, order_key=None):
    total = {"wire": 0, "corners": 0, "complete": 0, "nets": 0}
    for seed in SEEDS:
        design, bounds = build_workload(seed)
        router = LevelBRouter(bounds, list(design.nets.values()), config=config)
        order = None if order_key is None else sorted(router.nets, key=order_key)
        result = router.route(order=order)
        total["wire"] += result.total_wire_length
        total["corners"] += result.total_corners
        total["complete"] += result.nets_completed
        total["nets"] += result.nets_attempted
    return total


def test_cost_weight_ablation(benchmark):
    def sweep():
        return {
            "sparse (paper)": run_config(LevelBConfig(weights=CostWeights.sparse())),
            "dense": run_config(LevelBConfig(weights=CostWeights.dense())),
            "length-only": run_config(
                LevelBConfig(weights=CostWeights.length_only())
            ),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [name, f"{r['complete']}/{r['nets']}", r["wire"], r["corners"]]
        for name, r in results.items()
    ]
    print_experiment(
        "Ablation: cost weights (w1=1; w2* = 10 / 30 / 0)",
        format_table(["Weights", "Completed", "Wire", "Corners"], rows),
    )
    paper = results["sparse (paper)"]
    blind = results["length-only"]
    assert paper["complete"] >= blind["complete"]


def test_net_ordering_ablation(benchmark):
    def sweep():
        return {
            name: run_config(LevelBConfig(), key)
            for name, key in ORDER_KEYS.items()
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [name, f"{r['complete']}/{r['nets']}", r["wire"], r["corners"]]
        for name, r in results.items()
    ]
    print_experiment(
        "Ablation: serial net ordering (paper default: longest first)",
        format_table(["Ordering", "Completed", "Wire", "Corners"], rows),
    )
    longest = results["longest-first"]
    assert longest["complete"] == longest["nets"], (
        "the paper's default ordering must complete the workload"
    )


def test_track_reentry_budget_ablation(benchmark):
    """The visited-once rule's duplicate-entry budget: 1 vs 8."""

    def sweep():
        return {
            budget: run_config(LevelBConfig(max_entries_per_track=budget))
            for budget in (1, 2, 8)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [budget, f"{r['complete']}/{r['nets']}", r["wire"], r["corners"]]
        for budget, r in results.items()
    ]
    print_experiment(
        "Ablation: same-level duplicate PST entries per track",
        format_table(["Budget", "Completed", "Wire", "Corners"], rows),
    )
    # More path diversity can only help the selected wire length.
    assert results[8]["wire"] <= results[1]["wire"]


def test_partition_strategy_ablation(benchmark, flow_results):
    """Section 5: "If layout area optimization is the priority, channel
    areas can be eliminated and the entire set of interconnections can
    be routed in level B."  Measured on the ami33 suite."""
    from repro.bench_suite import SUITES
    from repro.flow import FlowParams, overcell_flow
    from repro.partition import PartitionStrategy

    def sweep():
        out = {}
        for strategy, threshold in (
            (PartitionStrategy.CRITICAL_TO_A, None),
            (PartitionStrategy.ALL_B, None),
            (PartitionStrategy.LONG_TO_B, 400),
        ):
            params = FlowParams(partition=strategy, length_threshold=threshold)
            out[strategy.value] = overcell_flow(SUITES["ami33"](), params)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    baseline = flow_results[("ami33", "two-layer")]
    rows = [["two-layer baseline", "-", f"{baseline.layout_area:,}",
             f"{baseline.wire_length:,}", "100%"]]
    for name, res in results.items():
        rows.append([
            name,
            f"{res.notes['level_a_nets']}/{res.notes['level_b_nets']}",
            f"{res.layout_area:,}",
            f"{res.wire_length:,}",
            f"{res.completion:.0%}",
        ])
    print_experiment(
        "Ablation: net partitioning strategies (ami33)",
        format_table(["Strategy", "A/B nets", "Area", "Wire", "Done"], rows)
        + "\n\nNote: all-b eliminates the channels (minimum area) but "
        "saturates the over-cell space on this example - the paper's own "
        "caveat: channel elimination works only 'assuming that the "
        "solution space for level B routing guarantees 100% routing "
        "completion'.",
    )
    paper = results["critical-to-a"]
    all_b = results["all-b"]
    # The paper's experimental setting must complete fully.
    assert paper.completion == 1.0
    assert paper.layout_area < baseline.layout_area
    # Eliminating channels minimises area, as section 5 predicts...
    assert all_b.layout_area <= paper.layout_area
    # ...but completion is only guaranteed when the solution space
    # allows it; on this dense example it falls short, which is the
    # caveat the paper itself states.
    assert all_b.completion <= 1.0


def test_steiner_vs_mst(benchmark):
    """Section 3.3: the Steiner-Prim heuristic vs terminal-only MST."""
    import random

    def sweep():
        rng = random.Random(99)
        total_mst = total_steiner = 0
        cases = 0
        for _ in range(300):
            k = rng.randint(3, 9)
            pts = []
            while len(pts) < k:
                p = Point(rng.randrange(0, 400), rng.randrange(0, 400))
                if p not in pts:
                    pts.append(p)
            mst = tree_length(rectilinear_mst(pts))
            steiner = steiner_prim_tree(pts).length
            assert steiner <= mst
            total_mst += mst
            total_steiner += steiner
            cases += 1
        return total_mst, total_steiner, cases

    total_mst, total_steiner, cases = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    saving = 100.0 * (total_mst - total_steiner) / total_mst
    print_experiment(
        "Ablation: Steiner-Prim vs rectilinear MST on multi-terminal nets",
        f"{cases} random nets (3-9 pins): MST length {total_mst:,}, "
        f"Steiner-Prim {total_steiner:,} ({saving:.1f}% shorter)",
    )
    assert saving > 1.0  # the Steiner points must pay for themselves
