"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.channels import ChannelProblem
from repro.geometry import Interval, Point, Rect
from repro.grid import RoutingGrid, TrackSet
from repro.netlist import Design, Edge
from repro.core.tig import TrackIntersectionGraph


def make_random_channel_problem(
    length: int, num_nets: int, seed: int
) -> ChannelProblem:
    """A random well-formed channel problem (used across router tests)."""
    rng = random.Random(seed)
    top = [0] * length
    bottom = [0] * length
    slots = [(side, col) for side in (0, 1) for col in range(length)]
    rng.shuffle(slots)
    i = 0
    for net in range(1, num_nets + 1):
        for _ in range(rng.randint(2, 4)):
            if i >= len(slots):
                break
            side, col = slots[i]
            i += 1
            if side == 0:
                top[col] = net
            else:
                bottom[col] = net
    return ChannelProblem(top=top, bottom=bottom)


def make_figure1_instance() -> tuple[TrackIntersectionGraph, dict]:
    """A small instance shaped like the paper's Figure 1.

    Six vertical tracks (v1..v6), five horizontal (h1..h5); net A and C
    pre-routed conceptually as obstacles is overkill - instead we give
    three nets A, B, C and an obstacle O1 between B's terminals.
    Returns the TIG and a dict of net name -> (net_id, terminals).
    """
    vt = TrackSet([0, 10, 20, 30, 40, 50])
    ht = TrackSet([0, 10, 20, 30, 40])
    tig = TrackIntersectionGraph(vt, ht)
    nets = {}
    nets["A"] = (1, tig.register_net(1, [Point(0, 0), Point(20, 40)]))
    nets["B"] = (2, tig.register_net(2, [Point(10, 10), Point(50, 30)]))
    nets["C"] = (3, tig.register_net(3, [Point(40, 0), Point(40, 40)]))
    tig.add_obstacle(Rect(25, 15, 35, 25))
    return tig, nets


def make_toy_design(seed: int = 7, nets: int = 6) -> Design:
    """A small placed 4-cell design for router tests."""
    rng = random.Random(seed)
    d = Design(f"toy{seed}")
    for i in range(4):
        c = d.add_cell(f"c{i}", 80, 64)
        c.place(16 + (i % 2) * 120, 16 + (i // 2) * 104)
    pins = []
    for i in range(4):
        for j in range(6):
            edge = Edge.TOP if j % 2 == 0 else Edge.BOTTOM
            pins.append(d.add_pin(f"c{i}", f"p{j}", edge, 8 + j * 8))
    rng.shuffle(pins)
    idx = 0
    sizes = [2, 2, 3, 2, 4, 3, 2, 3][:nets]
    for k, size in enumerate(sizes):
        if idx + size > len(pins):
            break
        net = d.add_net(f"n{k}")
        for p in pins[idx : idx + size]:
            net.add_pin(p)
        idx += size
    return d


# ----------------------------------------------------------------------
# One track's availability, read through RoutingGrid.window_masks
# ----------------------------------------------------------------------
def track_cells(
    grid: RoutingGrid, vertical: bool, track: int, lo: int, hi: int, net_id: int
) -> tuple[list[int], list[int]]:
    """Where ``net_id`` may run wire and where it may corner on one track.

    ``vertical`` selects v-track ``track`` (positions are h indices) or
    h-track ``track`` (positions are v indices).  Reads
    :meth:`RoutingGrid.window_masks` over the track's ``[lo, hi]`` and
    returns the ascending positions of its set wire and corner cells.
    """
    one, span = Interval(track, track), Interval(lo, hi)
    if vertical:
        _, usable_v, corner = grid.window_masks(net_id, one, span)
        wire, turn = usable_v[0], corner[:, 0]
    else:
        usable_h, _, corner = grid.window_masks(net_id, span, one)
        wire, turn = usable_h[0], corner[0]
    return (
        [lo + int(p) for p in np.flatnonzero(wire)],
        [lo + int(p) for p in np.flatnonzero(turn)],
    )


def run_through(
    grid: RoutingGrid,
    vertical: bool,
    track: int,
    pos: int,
    net_id: int,
    within: Interval | None = None,
) -> Interval | None:
    """The maximal run of wire cells of one track through ``pos``.

    ``within`` clips the track first; ``None`` when ``pos`` lies outside
    it or its own cell is unusable.
    """
    last = (grid.num_htracks if vertical else grid.num_vtracks) - 1
    lo = 0 if within is None else max(0, within.lo)
    hi = last if within is None else min(last, within.hi)
    if not lo <= pos <= hi:
        return None
    usable = set(track_cells(grid, vertical, track, lo, hi, net_id)[0])
    if pos not in usable:
        return None
    a = b = pos
    while a - 1 in usable:
        a -= 1
    while b + 1 in usable:
        b += 1
    return Interval(a, b)


def span_usable(
    grid: RoutingGrid, vertical: bool, track: int, a: int, b: int, net_id: int
) -> bool:
    """May ``net_id`` run wire over a whole span (ends in either order)?"""
    lo, hi = min(a, b), max(a, b)
    return len(track_cells(grid, vertical, track, lo, hi, net_id)[0]) == hi - lo + 1


@pytest.fixture
def figure1():
    return make_figure1_instance()


@pytest.fixture
def toy_design():
    return make_toy_design()
