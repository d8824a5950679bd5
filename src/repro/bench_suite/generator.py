"""Synthetic macro-cell benchmark generation.

Determinism contract: every design is generated by its own child
``random.Random`` whose seed is a pure function of the design's
identity — either the profile's fixed ``seed`` (the three paper
examples) or :func:`design_seed` (corpora).  No module-level random
state exists, so generating designs in any order, subset or process
(including :mod:`repro.dispatch` worker processes) yields byte-for-byte
identical netlists.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.geometry import Rect
from repro.netlist import Cell, Design, Edge
from repro.placement import RowPlacement
from repro.technology import NetClass

PITCH = 8  # pin grid; matches the metal1/metal2 pitch of the presets


def design_seed(corpus_seed: int, design_id: str) -> int:
    """A stable 64-bit child seed for one design of a corpus.

    Hash-derived (not ``corpus_seed + index``) so seeds are decorrelated
    and depend only on the (corpus_seed, design_id) pair — never on how
    many designs were generated before this one or in which process.
    """
    digest = hashlib.sha256(f"{corpus_seed}:{design_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SuiteProfile:
    """Recipe for one synthetic benchmark.

    ``critical_pin_counts`` lists the exact pin count of every level A
    (critical) net, so the per-example statistics the paper reports can
    be matched exactly.  Regular nets draw their pin counts from
    ``regular_pin_weights`` (pin count -> weight).
    """

    name: str
    seed: int
    num_cells: int
    cell_width_range: tuple[int, int]
    cell_height_range: tuple[int, int]
    num_regular_nets: int
    critical_pin_counts: tuple[int, ...] = ()
    regular_pin_weights: dict[int, float] = field(
        default_factory=lambda: {2: 0.62, 3: 0.26, 4: 0.12}
    )
    locality: float = 0.65  # probability a pin stays near the net's seed cell
    #: Wide-net counts (width classes, docs/TECHNOLOGY.md).  Both
    #: default 0, generated strictly after the regular nets, so every
    #: pre-existing profile draws exactly the same random sequence and
    #: regenerates byte-identically.
    clock_nets: int = 0
    power_nets: int = 0


def ami33_like() -> Design:
    """ami33: 33 macros, 123 nets; 4 critical nets averaging 44.25 pins."""
    return make_design(
        SuiteProfile(
            name="ami33",
            seed=33,
            num_cells=33,
            cell_width_range=(96, 240),
            cell_height_range=(64, 160),
            num_regular_nets=119,
            critical_pin_counts=(45, 44, 44, 44),  # mean 44.25, as reported
        )
    )


def xerox_like() -> Design:
    """Xerox: 10 large macros, 203 nets; 21 critical nets @ 9.19 pins."""
    # 21 nets totalling 193 pins: mean 9.19 as the paper reports.
    counts = tuple(10 if i < 4 else 9 for i in range(21))
    return make_design(
        SuiteProfile(
            name="xerox",
            seed=10,
            num_cells=10,
            cell_width_range=(320, 640),
            cell_height_range=(240, 480),
            num_regular_nets=182,
            critical_pin_counts=counts,
        )
    )


def ex3_like() -> Design:
    """ex3: an industrial macro chip; 56 critical nets @ 3.23 pins."""
    # 56 nets totalling 181 pins: mean 3.232, matching the paper's 3.23.
    counts = tuple(4 if i < 13 else 3 for i in range(56))
    return make_design(
        SuiteProfile(
            name="ex3",
            seed=3,
            num_cells=40,
            cell_width_range=(112, 288),
            cell_height_range=(80, 192),
            num_regular_nets=194,
            critical_pin_counts=counts,
        )
    )


# ----------------------------------------------------------------------
# The scale tier (docs/SCALING.md)
# ----------------------------------------------------------------------
#: Scale-tier recipes, smallest first.  These are deliberately *not*
#: in ``SUITES``: the paper tables, the serve endpoint and the default
#: CLI choices stay on the three paper examples, while
#: ``benchmarks/test_scale.py`` and explicit ``--design`` runs reach
#: the scale tier through :func:`scale_design`.
#:
#: The tiers hold the *demand density* (nets per cell) of the paper
#: examples' routable regime roughly constant while growing the
#: over-cell area by orders of magnitude, and use high locality so
#: committed geometry stays a small fraction of the grid
#: (docs/SCALING.md).  ``quick``
#: routes to 100 % completion in well under a minute and is the CI
#: tier; ``full`` is the same recipe at ~4x the area for manual and
#: nightly runs.
SCALE_TIERS: dict[str, SuiteProfile] = {
    "quick": SuiteProfile(
        name="scale-quick",
        seed=9001,
        num_cells=2500,
        cell_width_range=(96, 224),
        cell_height_range=(64, 160),
        num_regular_nets=220,
        critical_pin_counts=tuple(12 for _ in range(8)),
        locality=0.97,
    ),
    "full": SuiteProfile(
        name="scale-full",
        seed=9002,
        num_cells=10000,
        cell_width_range=(96, 224),
        cell_height_range=(64, 160),
        num_regular_nets=1200,
        critical_pin_counts=tuple(12 for _ in range(24)),
        locality=0.97,
    ),
}


# ----------------------------------------------------------------------
# The dense tier (docs/ITERATION.md)
# ----------------------------------------------------------------------
#: Dense-tier recipes: small over-cell areas under heavy, low-locality
#: demand, tuned to sit just past the one-pass routability boundary —
#: the default one-pass flow (rip-up budget and maze fallback
#: included) leaves a handful of nets unrouted, while the iterative
#: driver (``repro.iterate``) recovers them to 100 % completion.
#: Like the scale tiers these stay out of ``SUITES``;
#: ``benchmarks/test_iterate.py`` and explicit runs reach them through
#: :func:`dense_design`.  Both tiers route one-pass in seconds, so the
#: iterate bench can afford every ordering policy on each.
DENSE_TIERS: dict[str, SuiteProfile] = {
    "quick": SuiteProfile(
        name="dense-quick",
        seed=721,
        num_cells=24,
        cell_width_range=(128, 224),
        cell_height_range=(64, 128),
        num_regular_nets=100,
        critical_pin_counts=(6, 6),
        locality=0.45,
    ),
    "full": SuiteProfile(
        name="dense-full",
        seed=723,
        num_cells=24,
        cell_width_range=(128, 224),
        cell_height_range=(64, 128),
        num_regular_nets=100,
        critical_pin_counts=(6, 6),
        locality=0.45,
    ),
}


# ----------------------------------------------------------------------
# The wide tier (docs/TECHNOLOGY.md)
# ----------------------------------------------------------------------
#: Wide-net recipes: a handful of clock/power nets (multi-track width
#: classes) riding on a modest regular netlist, with enough slack that
#: wide footprints still route to completion.  The technology bench
#: (``benchmarks/test_technology.py``) routes these with stacked planes
#: under both routing objectives to measure the via-minimization mode's
#: effect; like the other special tiers they stay out of ``SUITES``.
WIDE_TIERS: dict[str, SuiteProfile] = {
    "quick": SuiteProfile(
        name="wide-quick",
        seed=4501,
        num_cells=20,
        cell_width_range=(160, 288),
        cell_height_range=(96, 160),
        num_regular_nets=48,
        critical_pin_counts=(6, 6),
        locality=0.55,
        clock_nets=6,
        power_nets=2,
    ),
    "full": SuiteProfile(
        name="wide-full",
        seed=4502,
        num_cells=36,
        cell_width_range=(160, 288),
        cell_height_range=(96, 160),
        num_regular_nets=120,
        critical_pin_counts=(6, 6, 6),
        locality=0.55,
        clock_nets=12,
        power_nets=4,
    ),
}


def wide_profile(tier: str = "quick") -> SuiteProfile:
    """The recipe of one wide tier (``KeyError`` on unknown tiers)."""
    if tier not in WIDE_TIERS:
        raise KeyError(
            f"unknown wide tier {tier!r} (available: {sorted(WIDE_TIERS)})"
        )
    return WIDE_TIERS[tier]


def wide_design(tier: str = "quick") -> Design:
    """Generate one wide-tier design (deterministic per tier)."""
    return make_design(wide_profile(tier))


def dense_profile(tier: str = "quick") -> SuiteProfile:
    """The recipe of one dense tier (``KeyError`` on unknown tiers)."""
    if tier not in DENSE_TIERS:
        raise KeyError(
            f"unknown dense tier {tier!r} (available: {sorted(DENSE_TIERS)})"
        )
    return DENSE_TIERS[tier]


def dense_design(tier: str = "quick") -> Design:
    """Generate one dense-tier design (deterministic per tier)."""
    return make_design(dense_profile(tier))


def scale_profile(tier: str = "quick") -> SuiteProfile:
    """The recipe of one scale tier (``KeyError`` on unknown tiers)."""
    if tier not in SCALE_TIERS:
        raise KeyError(
            f"unknown scale tier {tier!r} (available: {sorted(SCALE_TIERS)})"
        )
    return SCALE_TIERS[tier]


def scale_design(tier: str = "quick") -> Design:
    """Generate one scale-tier design (deterministic per tier)."""
    return make_design(scale_profile(tier))


def random_design(
    name: str,
    *,
    seed: int,
    num_cells: int = 12,
    num_nets: int = 40,
    num_critical: int = 2,
) -> Design:
    """A small randomized design for tests and fuzzing."""
    rng = random.Random(seed)
    criticals = tuple(rng.randint(4, 8) for _ in range(num_critical))
    return make_design(
        SuiteProfile(
            name=name,
            seed=seed,
            num_cells=num_cells,
            cell_width_range=(64, 160),
            cell_height_range=(48, 112),
            num_regular_nets=num_nets - num_critical,
            critical_pin_counts=criticals,
        )
    )


def section3_workload(seed: int) -> tuple[Design, Rect]:
    """Section 3's speed workload: a placed design and its level B bounds.

    48 nets on 14 row-placed cells: busy but fully routable by both the
    MBFS and the Lee router, so timing them compares the same realised
    set of connections (at saturation both would mostly prove
    failures).  ``benchmarks/test_mbfs_vs_maze.py`` times seeds 1-3, and
    tier-1 pins their node totals.
    """
    design = random_design(
        f"speed{seed}", seed=seed, num_cells=14, num_nets=48, num_critical=0
    )
    placement = RowPlacement.build(design, pitch=8)
    placement.realize([16] * placement.channel_count, margin=16)
    return design, design.cell_bounds().expanded(24)


def random_corpus(
    count: int,
    *,
    corpus_seed: int = 0,
    prefix: str = "rand",
    num_cells: int = 12,
    num_nets: int = 40,
    num_critical: int = 2,
) -> list[Design]:
    """``count`` independent random designs named ``<prefix>000``...

    Each design's seed comes from :func:`design_seed`, so any slice of
    the corpus regenerates identically regardless of order or process —
    ``random_corpus(10)[7]`` equals the 8th design of
    ``random_corpus(8)`` run elsewhere.
    """
    return [
        random_design(
            f"{prefix}{i:03d}",
            seed=design_seed(corpus_seed, f"{prefix}{i:03d}"),
            num_cells=num_cells,
            num_nets=num_nets,
            num_critical=num_critical,
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
def make_design(profile: SuiteProfile) -> Design:
    """Instantiate a profile into a validated, unplaced design."""
    rng = random.Random(profile.seed)
    design = Design(profile.name)
    allocator = _PinAllocator(rng)
    for i in range(profile.num_cells):
        width = _snap(rng.randint(*profile.cell_width_range))
        height = _snap(rng.randint(*profile.cell_height_range))
        cell = design.add_cell(f"cell{i:02d}", width, height)
        allocator.register(cell)
    net_no = 0
    for count in profile.critical_pin_counts:
        net = design.add_net(f"crit{net_no:03d}", is_critical=True)
        _populate_net(design, net, count, allocator, rng, profile.locality)
        net_no += 1
    weights = profile.regular_pin_weights
    choices = sorted(weights)
    weight_list = [weights[c] for c in choices]
    for i in range(profile.num_regular_nets):
        count = rng.choices(choices, weights=weight_list)[0]
        net = design.add_net(f"net{i:03d}")
        _populate_net(design, net, count, allocator, rng, profile.locality)
    # Wide nets come last: profiles without them (every profile that
    # predates width classes) consume no extra RNG draws.
    for prefix, net_class, total in (
        ("clk", NetClass.CLOCK, profile.clock_nets),
        ("pwr", NetClass.POWER, profile.power_nets),
    ):
        for i in range(total):
            count = rng.choices(choices, weights=weight_list)[0]
            net = design.add_net(f"{prefix}{i:02d}", net_class=net_class)
            _populate_net(design, net, count, allocator, rng, profile.locality)
    design.check()
    return design


class _PinAllocator:
    """Hands out free pin slots on cell TOP/BOTTOM edges.

    Slots sit on the ``PITCH`` grid strictly inside the edge so pins of
    neighbouring cells can never coincide.  Slot order is shuffled per
    edge for spatial spread, deterministically from the design seed.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.slots: dict[tuple[str, Edge], list[int]] = {}
        self.cells: list[Cell] = []
        self._pin_serial: dict[str, int] = {}

    def register(self, cell: Cell) -> None:
        self.cells.append(cell)
        for edge in (Edge.TOP, Edge.BOTTOM):
            offsets = list(range(PITCH, cell.width, PITCH))
            self.rng.shuffle(offsets)
            self.slots[(cell.name, edge)] = offsets
        self._pin_serial[cell.name] = 0

    def free_slots(self, cell: Cell) -> int:
        return len(self.slots[(cell.name, Edge.TOP)]) + len(
            self.slots[(cell.name, Edge.BOTTOM)]
        )

    def take(self, design: Design, cell: Cell):
        """Allocate one pin on ``cell`` (random edge with free slots)."""
        edges = [
            e
            for e in (Edge.TOP, Edge.BOTTOM)
            if self.slots[(cell.name, e)]
        ]
        if not edges:
            raise RuntimeError(f"cell {cell.name} has no free pin slots")
        edge = self.rng.choice(edges)
        offset = self.slots[(cell.name, edge)].pop()
        serial = self._pin_serial[cell.name]
        self._pin_serial[cell.name] = serial + 1
        return design.add_pin(cell.name, f"p{serial:03d}", edge, offset)


def _populate_net(
    design: Design,
    net,
    pin_count: int,
    allocator: _PinAllocator,
    rng: random.Random,
    locality: float,
) -> None:
    """Attach ``pin_count`` pins with a locality bias around a seed cell."""
    cells = allocator.cells
    seed_cell = rng.choice(cells)
    seed_index = cells.index(seed_cell)
    for _ in range(pin_count):
        cell = None
        for _attempt in range(32):
            if rng.random() < locality:
                # Neighbourhood of the seed cell in registration order.
                lo = max(0, seed_index - 3)
                hi = min(len(cells), seed_index + 4)
                candidate = rng.choice(cells[lo:hi])
            else:
                candidate = rng.choice(cells)
            if allocator.free_slots(candidate):
                cell = candidate
                break
        if cell is None:
            # Fall back to any cell with space (deterministic order).
            spacious = [c for c in cells if allocator.free_slots(c)]
            if not spacious:
                raise RuntimeError("benchmark profile exceeds total pin capacity")
            cell = spacious[0]
        net.add_pin(allocator.take(design, cell))


def _snap(value: int) -> int:
    return max(PITCH * 2, (value // PITCH) * PITCH)
