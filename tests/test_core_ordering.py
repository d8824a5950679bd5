"""Tests for serial net ordering: the one table of policies."""

import random

from repro.netlist import Cell, Net, Pin, Edge
from repro.core.ordering import POLICIES, NetFeedback, longest_first


def make_net(name, length, pins=2, critical=False, weight=1.0):
    cell = Cell(f"cell_{name}", max(length, 8) + 8, 16)
    cell.place(0, 0)
    net = Net(name, is_critical=critical, weight=weight)
    for i in range(pins):
        offset = 0 if i == 0 else min(length, cell.width)
        pin = Pin(f"p{i}", cell, Edge.TOP, offset)
        cell.add_pin(pin)
        net.add_pin(pin)
    return net


class TestOrderings:
    def test_longest_first_default(self):
        nets = [make_net("a", 10), make_net("b", 100), make_net("c", 50)]
        ordered = longest_first(nets, {})
        assert [n.name for n in ordered] == ["b", "c", "a"]

    def test_deterministic_tie_break_by_name(self):
        nets = [make_net("b", 50), make_net("a", 50)]
        ordered = longest_first(nets, {})
        assert [n.name for n in ordered] == ["a", "b"]

    def test_input_not_mutated(self):
        nets = [make_net("b", 50), make_net("a", 100)]
        for policy in POLICIES.values():
            policy(nets, {})
            assert [n.name for n in nets] == ["b", "a"]


class TestPermutationProperty:
    """Every policy is a total, deterministic, input-order-free sort.

    Each sort key ends on the net name, so no pair of distinct nets
    ever compares equal and the result cannot depend on how the caller
    happened to list the nets.  The fixture nets tie deliberately on
    every other key dimension (length, pin count, and in the feedback
    failure, overflow and demand) to force the name tie-break to carry
    the order.  Each property holds with no feedback (the order of the
    first pass and of one-pass routing) and with feedback (the order
    of an iterate pass).
    """

    def _tied_nets(self):
        return [
            make_net("e", 50, pins=2),
            make_net("a", 50, pins=2),
            make_net("c", 50, pins=4, critical=True),
            make_net("h", 100, pins=4, critical=True),
            make_net("b", 100, pins=4, critical=True),
            make_net("d", 100, pins=2),
            make_net("g", 10, pins=3, critical=True),
            make_net("f", 10, pins=3),
            make_net("i", 10, pins=3, critical=True, weight=2.0),
        ]

    def _feedbacks(self, nets):
        tied = {
            n.name: NetFeedback(failed=i % 2 == 0, overflow=i % 3, demand=0.5)
            for i, n in enumerate(sorted(nets, key=lambda n: n.name))
        }
        return ({}, tied)

    def test_every_criterion_is_a_permutation(self):
        nets = self._tied_nets()
        for feedback in self._feedbacks(nets):
            for name, policy in POLICIES.items():
                ordered = policy(nets, feedback)
                assert sorted(n.name for n in ordered) == sorted(
                    n.name for n in nets
                ), name

    def test_every_criterion_is_shuffle_invariant(self):
        nets = self._tied_nets()
        rng = random.Random(0xC0FFEE)
        for feedback in self._feedbacks(nets):
            for name, policy in POLICIES.items():
                baseline = [n.name for n in policy(nets, feedback)]
                for _ in range(25):
                    shuffled = list(nets)
                    rng.shuffle(shuffled)
                    got = [n.name for n in policy(shuffled, feedback)]
                    assert got == baseline, name

    def test_ties_resolve_by_name_under_every_criterion(self):
        # Three nets identical under every non-name key must come out
        # name-sorted relative to each other, whatever the policy.
        triplet = [make_net(n, 64, pins=3) for n in ("z", "m", "b")]
        same = NetFeedback(failed=True, overflow=2, demand=0.5)
        for feedback in ({}, {n.name: same for n in triplet}):
            for name, policy in POLICIES.items():
                ordered = [n.name for n in policy(triplet, feedback)]
                assert ordered == ["b", "m", "z"], name
