"""Tests for cooperative level B deadlines (repro.core.cancel)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.bench_suite import SUITES
from repro.core import LevelBRouter
from repro.core.cancel import RouteCancelled, checkpoint, deadline
from repro.flow import FlowParams, overcell_flow
from repro.flow.pipeline import levelb_router, realize_level_a
from repro.geometry import Interval, Point
from repro.grid import TrackSet
from repro.core.tig import TrackIntersectionGraph
from repro.maze import lee as lee_mod
from repro.maze import lee_search
from test_planes import PARITY_DIGESTS, _geometry_digest


def _ami33_router() -> LevelBRouter:
    params = FlowParams()
    level_a = realize_level_a(SUITES["ami33"](), params)
    return levelb_router(level_a.bounds, level_a.set_b, params)


def _count_route_net(monkeypatch, after=None):
    """Count nets entering ``_route_net``; ``after(n)`` runs once the
    n-th has routed."""
    calls = {"n": 0}
    original = LevelBRouter._route_net

    def counted(self, net):
        calls["n"] += 1
        n = calls["n"]
        outcome = original(self, net)
        if after is not None:
            after(n)
        return outcome

    monkeypatch.setattr(LevelBRouter, "_route_net", counted)
    return calls


class TestDeadline:
    def test_none_binds_nothing(self):
        threads = threading.active_count()
        with deadline(None) as event:
            assert event is None
            assert threading.active_count() == threads  # no timer
            checkpoint()

    def test_none_keeps_the_outer_binding(self):
        with deadline(3600) as outer:
            outer.set()
            with deadline(None), pytest.raises(RouteCancelled):
                checkpoint()

    def test_timer_sets_the_event(self):
        with deadline(0.05) as event:
            assert event.wait(5.0)
            with pytest.raises(RouteCancelled):
                checkpoint()
        checkpoint()  # unbound again on exit

    def test_previous_binding_restored(self):
        with deadline(3600) as outer:
            with deadline(3600) as inner:
                inner.set()
                with pytest.raises(RouteCancelled):
                    checkpoint()
            checkpoint()  # the outer, unset event is bound again
            outer.set()
            with pytest.raises(RouteCancelled):
                checkpoint()
        checkpoint()

    def test_binding_is_per_thread(self):
        # More threads than cores, switching as often as possible: each
        # sees its own event only, and only a set one cancels.
        cancelled = {}

        def job(i):
            with deadline(3600) as event:
                if i % 2:
                    event.set()
                try:
                    for _ in range(2000):
                        checkpoint()
                    cancelled[i] = False
                except RouteCancelled:
                    cancelled[i] = True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=job, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert cancelled == {i: bool(i % 2) for i in range(8)}


class TestLevelBCheckpoints:
    def test_set_event_cancels_before_first_net(self, monkeypatch):
        router = _ami33_router()
        calls = _count_route_net(monkeypatch)
        with deadline(3600) as event:
            event.set()
            with pytest.raises(RouteCancelled):
                router.route()
        assert calls["n"] == 0

    @pytest.mark.parametrize("k", [1, 5])
    def test_event_set_after_k_nets_stops_at_next(self, monkeypatch, k):
        router = _ami33_router()
        with deadline(3600) as event:
            calls = _count_route_net(
                monkeypatch, after=lambda n: n == k and event.set()
            )
            with pytest.raises(RouteCancelled):
                router.route()
        assert calls["n"] == k

    def test_escalation_checks_before_each_window(self):
        from repro.core.router import Escalation

        ts = TrackSet(range(0, 200, 10))
        tig = TrackIntersectionGraph(ts, TrackSet(range(0, 200, 10)))
        a, b = tig.register_net(1, [Point(0, 0), Point(50, 50)])
        small = (Interval(0, 5), Interval(0, 5))
        with deadline(3600) as event:
            event.set()
            with pytest.raises(RouteCancelled):
                next(iter(Escalation(tig.grid, 1, a, b, [small, None])))
        with deadline(3600) as event:
            windows = iter(Escalation(tig.grid, 1, a, b, [small, None]))
            assert next(windows) == small
            event.set()
            with pytest.raises(RouteCancelled):
                next(windows)  # the whole grid, a new window

    def test_event_set_mid_wave_stops_lee_within_one_round(self, monkeypatch):
        ts = TrackSet(range(0, 1200, 10))
        tig = TrackIntersectionGraph(ts, TrackSet(range(0, 1200, 10)))
        a, b = tig.register_net(1, [Point(0, 0), Point(1190, 1190)])
        grid = tig.grid
        checks = {"n": 0, "set_at": None}
        events = {}

        def counted_checkpoint():
            checks["n"] += 1
            if checks["n"] == checks["set_at"]:
                events["now"].set()
            checkpoint()

        monkeypatch.setattr(lee_mod, "checkpoint", counted_checkpoint)
        # The wave checks once per round; this one takes three.
        lee_search(grid, 1, a, b)
        assert checks["n"] == 3

        original = type(grid).window_masks
        checks["n"] = 0
        with deadline(3600) as event:

            def window_masks(self, *args):
                # Lee reads its window once, just before the wave starts.
                event.set()
                return original(self, *args)

            monkeypatch.setattr(type(grid), "window_masks", window_masks)
            with pytest.raises(RouteCancelled):
                lee_search(grid, 1, a, b)
        assert checks["n"] == 1  # the first round's check
        monkeypatch.setattr(type(grid), "window_masks", original)

        checks["n"], checks["set_at"] = 0, 2
        with deadline(3600) as event:
            events["now"] = event
            with pytest.raises(RouteCancelled):
                lee_search(grid, 1, a, b)
        assert checks["n"] == 2  # set in the second round, stopped there

    def test_fresh_router_after_cancel_routes_seed_digest(self, monkeypatch):
        router = _ami33_router()
        with deadline(3600) as event:
            _count_route_net(monkeypatch, after=lambda n: n == 5 and event.set())
            with pytest.raises(RouteCancelled):
                router.route()  # spent, with five nets on its grid
        monkeypatch.undo()
        result = overcell_flow(SUITES["ami33"]())
        assert _geometry_digest(result) == PARITY_DIGESTS["ami33"]

    def test_unset_deadline_routes_seed_digest(self):
        with deadline(3600):
            result = overcell_flow(SUITES["ami33"]())
        assert _geometry_digest(result) == PARITY_DIGESTS["ami33"]
