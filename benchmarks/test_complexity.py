"""Section 3.4 - complexity claims of the level B algorithm.

Paper: storage is ``O(h*v)`` (the Track Intersection Graph array);
updating the array after a completed connection is ``O(t)``,
``t = max(h, v)``; total routing time is ``O(n*h*v)`` for ``n``
two-terminal connections.

Measured here on grid-size sweeps:

* storage: the owner arrays are exactly ``2*h*v`` slots, one per
  direction per intersection, of the narrowest integer type that
  holds the run's net ids;
* update: committing a straight connection touches O(t) cells -
  timed across t to show near-linear growth;
* search: unbounded-region single connections across grid sizes -
  node creation should grow no faster than ``h*v``.
"""

import time

from repro.core.search import MBFSearch
from repro.core.tig import TrackIntersectionGraph
from repro.geometry import Point, Rect
from repro.reporting import format_table

from conftest import print_experiment


def make_instance(n):
    """An n x n grid with one corner-to-corner net."""
    pitch = 10
    size = (n - 1) * pitch
    tig = TrackIntersectionGraph.over_area(
        Rect(0, 0, size, size), v_pitch=pitch, h_pitch=pitch
    )
    terms = tig.register_net(1, [Point(0, 0), Point(size, size)])
    return tig, terms


def test_storage_is_h_times_v(benchmark):
    def build():
        return {n: make_instance(n)[0] for n in (16, 32, 64)}

    tigs = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for n, tig in tigs.items():
        grid = tig.grid
        slots = grid._h_owner.size + grid._v_owner.size
        assert slots == 2 * grid.num_vtracks * grid.num_htracks
        rows.append([f"{n}x{n}", grid.num_intersections, slots])
    print_experiment(
        "Storage: occupancy slots = 2*h*v (paper: O(h*v))",
        format_table(["Grid", "Intersections", "Slots"], rows),
    )


def test_update_is_linear_in_t(benchmark):
    """Committing a straight t-track connection costs O(t)."""

    def measure():
        out = []
        for n in (64, 128, 256, 512):
            tig, _ = make_instance(n)
            grid = tig.grid
            reps = 200
            started = time.perf_counter()
            for r in range(reps):
                h_idx = 1 + (r % (n - 2))
                points = [Point(0, h_idx * 10), Point((n - 1) * 10, h_idx * 10)]
                grid.commit_path(1, points, [])
            elapsed = (time.perf_counter() - started) / reps
            out.append((n, elapsed))
        return out

    data = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[n, f"{t * 1e6:.1f}"] for n, t in data]
    print_experiment(
        "Occupancy update per connection (paper: O(t), t = max(h, v))",
        format_table(["t (tracks)", "us / update"], rows),
    )
    # Near-linear: time for 8x the tracks within ~24x (generous bound
    # that excludes quadratic growth, which would be 64x).
    t_small = data[0][1]
    t_large = data[-1][1]
    assert t_large < 24 * max(t_small, 1e-7)


def test_search_scales_with_grid(benchmark):
    """Unbounded corner-to-corner searches across grid sizes."""

    def measure():
        out = []
        for n in (16, 32, 64):
            tig, (a, b) = make_instance(n)
            started = time.perf_counter()
            result = MBFSearch(tig.grid, 1, a, b).run()
            elapsed = time.perf_counter() - started
            assert result.found
            out.append((n, result.nodes_created, elapsed))
        return out

    data = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [f"{n}x{n}", nodes, f"{t * 1000:.2f}"] for n, nodes, t in data
    ]
    print_experiment(
        "Single-connection search effort vs grid size (paper: O(h*v) worst case)",
        format_table(["Grid", "Nodes created", "ms"], rows),
    )
    # Node creation stays within O(h*v): quadrupling the grid area may
    # grow nodes by at most ~the same factor (with slack).
    for (n1, nodes1, _), (n2, nodes2, _) in zip(data, data[1:]):
        area_ratio = (n2 * n2) / (n1 * n1)
        assert nodes2 <= 2 * area_ratio * nodes1
