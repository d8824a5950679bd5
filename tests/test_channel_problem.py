"""Tests for the channel problem model."""

import pytest

from repro.channels import ChannelProblem


class TestConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChannelProblem(top=[0, 1], bottom=[0])

    def test_negative_net_rejected(self):
        with pytest.raises(ValueError):
            ChannelProblem(top=[-1], bottom=[0])

    def test_from_pin_lists(self):
        p = ChannelProblem.from_pin_lists([(0, 1), (4, 2)], [(2, 1)])
        assert p.length == 5
        assert p.top == [1, 0, 0, 0, 2]
        assert p.bottom == [0, 0, 1, 0, 0]

    def test_from_pin_lists_length_override(self):
        p = ChannelProblem.from_pin_lists([(0, 1)], [(1, 1)], length=10)
        assert p.length == 10

    def test_same_column_conflict_rejected(self):
        with pytest.raises(ValueError):
            ChannelProblem.from_pin_lists([(3, 1), (3, 2)], [])

    def test_same_net_duplicate_collapses(self):
        p = ChannelProblem.from_pin_lists([(3, 1), (3, 1)], [(0, 1)])
        assert p.top.count(1) == 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            ChannelProblem.from_pin_lists([(-1, 1)], [])
        with pytest.raises(ValueError):
            ChannelProblem.from_pin_lists([(0, 0)], [])


class TestQueries:
    def make(self):
        #  cols:   0  1  2  3  4  5
        #  top:    1  0  2  0  1  0
        #  bottom: 0  2  0  1  0  2
        return ChannelProblem(top=[1, 0, 2, 0, 1, 0], bottom=[0, 2, 0, 1, 0, 2])

    def test_nets(self):
        assert self.make().nets() == [1, 2]

    def test_pin_columns(self):
        p = self.make()
        assert p.pin_columns(1) == [0, 3, 4]
        assert p.pin_columns(2) == [1, 2, 5]

    def test_span(self):
        p = self.make()
        assert p.span(1) == (0, 4)
        assert p.span(2) == (1, 5)
        with pytest.raises(KeyError):
            p.span(9)

    def test_pin_count(self):
        p = self.make()
        assert p.pin_count(1) == 3
        assert p.pin_count(2) == 3
        assert p.pin_count(9) == 0

    def test_density(self):
        p = self.make()
        # Columns 1..4 are covered by both nets' spans.
        assert p.density() == 2

    def test_density_excludes_single_pin_nets(self):
        p = ChannelProblem(top=[1, 0, 0], bottom=[0, 0, 2])
        assert p.density() == 0

    def test_empty_channel(self):
        p = ChannelProblem(top=[], bottom=[])
        assert p.length == 0
        assert p.density() == 0
        assert p.nets() == []
