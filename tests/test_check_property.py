"""Property-based tests for the verification engine.

Two properties, both over randomly generated level B instances:

* **soundness on honest output** - a legally constructed design (every
  net on its own exclusive tracks, terminals at path ends, corners
  claimed exactly where the path turns) verifies CLEAN;
* **sensitivity to corruption** - any of the canonical corruptions
  applied to an honest design is flagged, and with the right rule id.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    RULE_CORNER_CLAIM,
    RULE_DANGLING,
    RULE_OPEN,
    RULE_SHORT,
    RULE_TRACK,
    check_levelb,
)
from repro.core.engine import RoutedConnection
from repro.core.router import LevelBResult, RoutedNet
from repro.core.tig import GridTerminal, TrackIntersectionGraph
from repro.geometry import Path, Point, Segment
from repro.grid import TrackSet

#: 16 tracks at pitch 10 per axis; net ``i`` owns index block
#: ``4i .. 4i+3`` on both axes, so distinct nets can never interact.
PITCH = 10
NUM_TRACKS = 16
COORDS = [i * PITCH for i in range(NUM_TRACKS)]


def _path(points):
    pts = [Point(*p) for p in points]
    return Path(tuple(Segment(a, b) for a, b in zip(pts, pts[1:])))


def _connection(points, corners):
    return RoutedConnection(
        source=GridTerminal(0, 0),
        target=GridTerminal(0, 0),
        path=_path(points),
        corners=list(corners),
        expansions_used=0,
    )


class _Net:
    is_sensitive = False

    def __init__(self, name, pins):
        self.name = name
        self._pins = [Point(*p) for p in pins]

    def pin_positions(self):
        return list(self._pins)

    @property
    def degree(self):
        return len(self._pins)


@st.composite
def honest_results(draw, min_nets=1):
    """A legally wired LevelBResult with 1-3 nets on exclusive tracks."""
    k = draw(st.integers(min_value=min_nets, max_value=3))
    tig = TrackIntersectionGraph(TrackSet(COORDS), TrackSet(COORDS))
    routed = []
    for i in range(k):
        lo = 4 * i  # this net's exclusive track-index block
        vi = sorted(
            draw(
                st.lists(
                    st.integers(lo, lo + 3), min_size=2, max_size=2,
                    unique=True,
                )
            )
        )
        hi = sorted(
            draw(
                st.lists(
                    st.integers(lo, lo + 3), min_size=2, max_size=2,
                    unique=True,
                )
            )
        )
        x1, x2 = COORDS[vi[0]], COORDS[vi[1]]
        y1, y2 = COORDS[hi[0]], COORDS[hi[1]]
        shape = draw(st.sampled_from(["H", "V", "L"]))
        if shape == "H":
            points, corners = [(x1, y1), (x2, y1)], []
        elif shape == "V":
            points, corners = [(x1, y1), (x1, y2)], []
        else:  # L: vertical riser then horizontal trunk, one corner
            points = [(x1, y1), (x1, y2), (x2, y2)]
            corners = [(vi[0], hi[1])]
        net = _Net(f"n{i}", [points[0], points[-1]])
        routed.append(
            RoutedNet(
                net=net,
                net_id=i + 1,
                connections=[_connection(points, corners)],
            )
        )
    return LevelBResult(tig=tig, routed=routed, elapsed_s=0.0,
                        nodes_created=0)


@settings(max_examples=60, deadline=None)
@given(honest_results())
def test_honest_designs_verify_clean(result):
    report = check_levelb(result)
    assert report.ok, report.render()
    assert report.violations == []


@settings(max_examples=60, deadline=None)
@given(honest_results(), st.integers(min_value=1, max_value=PITCH - 1),
       st.data())
def test_corruptions_are_always_flagged(result, dx, data):
    corruption = data.draw(
        st.sampled_from(["off-track", "open", "corner", "dangling"])
    )
    victim = data.draw(
        st.integers(min_value=0, max_value=len(result.routed) - 1)
    )
    conn = result.routed[victim].connections[0]
    if corruption == "off-track":
        # Slide the whole path sideways off the track grid.
        shifted = [(p.x + dx, p.y) for p in conn.path.waypoints()]
        conn.path = _path(shifted)
        expected = RULE_TRACK
    elif corruption == "open":
        # The net still claims completion but has no wiring at all.
        result.routed[victim].connections = []
        expected = RULE_OPEN
    elif corruption == "corner":
        # Claim a corner the geometry does not have.  (15,15) is index
        # space: outside every net's block's turn points by construction.
        conn.corners = [*conn.corners, (NUM_TRACKS - 1, NUM_TRACKS - 1)]
        expected = RULE_CORNER_CLAIM
    else:  # dangling: orphan metal connected to nothing
        # The orphan sits on track y=150, above every net's block
        # (blocks stop at index 11), so it can only dangle.
        orphan = _connection(
            [(0, COORDS[-1]), (PITCH, COORDS[-1])], []
        )
        result.routed[victim].connections.append(orphan)
        expected = RULE_DANGLING
    report = check_levelb(result)
    assert expected in report.counts(), (
        corruption,
        report.render(),
    )
    assert not report.ok or expected == RULE_DANGLING


@settings(max_examples=40, deadline=None)
@given(honest_results(min_nets=2), st.data())
def test_cloned_wiring_is_a_short(result, data):
    """Routing one net on top of another always raises drc.short."""
    a, b = data.draw(
        st.permutations(range(len(result.routed))).map(lambda p: p[:2])
    )
    src = result.routed[a].connections[0]
    dst = result.routed[b].connections[0]
    dst.path = _path([(p.x, p.y) for p in src.path.waypoints()])
    dst.corners = list(src.corners)
    report = check_levelb(result)
    assert RULE_SHORT in report.counts(), report.render()
    assert not report.ok
