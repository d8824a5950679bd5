"""Terminal renderings of channels, grids, PSTs and level B routing."""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.channels import ChannelProblem, ChannelRoute
from repro.core.search import PSTNode
from repro.core.tig import TrackIntersectionGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.router import LevelBResult


def _net_char(net: int) -> str:
    """A printable character for a net id (letters, then digits, then #)."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    if 1 <= net <= len(alphabet):
        return alphabet[net - 1]
    return "#"


def render_channel(route: ChannelRoute, problem: ChannelProblem | None = None) -> str:
    """A character map of a routed channel.

    Rows: the top pin row, one row per track, the bottom pin row.
    ``-`` trunk metal, ``|`` jog metal, ``+`` a via or crossing, net
    letters at pins and trunk midpoints.
    """
    width = route.length
    height = route.tracks + 2  # pin rows top and bottom
    grid = [[" "] * max(1, width) for _ in range(height)]

    def row_index(row: int) -> int:
        return row + 1  # row -1 (top boundary) -> 0

    for span in route.spans:
        r = row_index(span.track)
        for c in range(span.c1, span.c2 + 1):
            grid[r][c] = "-"
        mid = (span.c1 + span.c2) // 2
        grid[r][mid] = _net_char(span.net)
    for jog in route.jogs:
        for row in range(jog.r1, jog.r2 + 1):
            r = row_index(row)
            cell = grid[r][jog.column]
            grid[r][jog.column] = "+" if cell in "-+" else "|"
    if problem is not None:
        for col in range(problem.length):
            if problem.top[col]:
                grid[0][col] = _net_char(problem.top[col])
            if problem.bottom[col]:
                grid[-1][col] = _net_char(problem.bottom[col])
    return "\n".join("".join(row) for row in grid)


def render_tig(tig: TrackIntersectionGraph, net_id: int = 0) -> str:
    """The Track Intersection Graph as an adjacency listing.

    Paper-style names: vertical vertices ``v1..``, horizontal ``h1..``.
    Edges listed once, from the vertical side.
    """
    v_names, h_names = tig.vertex_names()
    lines = [
        f"TIG: {len(v_names)} vertical + {len(h_names)} horizontal vertices"
    ]
    for v in range(tig.grid.num_vtracks):
        usable = [
            h_names[h]
            for h in range(tig.grid.num_htracks)
            if tig.edge_usable(v, h, net_id)
        ]
        lines.append(f"  {v_names[v]}: " + " ".join(usable))
    return "\n".join(lines)


def render_pst(root: PSTNode, completed: Sequence[PSTNode] = ()) -> str:
    """A Path Selection Tree as indented text (the paper's Figure 2).

    Completing nodes (minimum-corner leaves) are marked with ``*``.
    """
    done = {id(n) for n in completed}
    lines: list[str] = []

    def visit(node: PSTNode, depth: int) -> None:
        mark = " *" if id(node) in done else ""
        lines.append("  " * depth + node.name() + mark)
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


#: Per-plane wiring glyph pairs (horizontal, vertical), plane 0 first.
#: Plane 0 keeps the historical ``-``/``|``; further planes cycle
#: through visually distinct pairs.
_PLANE_GLYPHS = (("-", "|"), ("=", "!"), ("~", ":"), ("_", ";"))


def _plane_glyphs(plane: int) -> tuple[str, str]:
    return _PLANE_GLYPHS[plane % len(_PLANE_GLYPHS)]


def levelb_legend(result: "LevelBResult") -> str:
    """A per-plane glyph legend.

    One line per routed plane: its layer-pair label (the routed
    technology's layer names,
    :meth:`~repro.core.router.LevelBResult.plane_labels`) and the glyphs
    :func:`render_levelb_ascii` draws it with.
    """
    lines = []
    for p, label in enumerate(result.plane_labels()):
        h_glyph, v_glyph = _plane_glyphs(p)
        lines.append(f"plane {p} ({label}): {h_glyph} horizontal, {v_glyph} vertical")
    return "\n".join(lines)


def render_levelb_ascii(
    result: "LevelBResult",
    width: int = 100,
    cells: Sequence = (),
    legend: bool = False,
) -> str:
    """A down-sampled character plot of a level B routing result.

    ``-``/``|`` are plane 0 (metal4/metal3) wiring, ``+`` both, ``#``
    cell area (when ``cells`` - objects with ``.bounds`` - are
    supplied), ``o`` terminals.  Results routed on more planes draw
    each plane with its own glyph pair (see :func:`levelb_legend`);
    ``legend`` appends the per-plane key below the plot.
    Aspect-corrected for terminal character cells.
    """
    grid = result.tig.grid
    span_x = grid.vtracks.span
    span_y = grid.htracks.span
    w = max(span_x.length, 1)
    h = max(span_y.length, 1)
    cols = width
    rows = max(1, int(cols * (h / w) * 0.5))
    canvas = [[" "] * cols for _ in range(rows)]

    def to_cell(x: int, y: int) -> tuple:
        cx = min(cols - 1, (x - span_x.lo) * cols // (w + 1))
        cy = min(rows - 1, (y - span_y.lo) * rows // (h + 1))
        return cx, rows - 1 - cy  # y grows upward

    for cell in cells:
        box = cell.bounds
        x1, y1 = to_cell(box.x1, box.y1)
        x2, y2 = to_cell(box.x2, box.y2)
        for cy in range(min(y1, y2), max(y1, y2) + 1):
            for cx in range(x1, x2 + 1):
                canvas[cy][cx] = "."
    wire_glyphs = {
        g for pair in _PLANE_GLYPHS for g in pair
    }
    for routed in result.routed:
        h_glyph, v_glyph = _plane_glyphs(getattr(routed, "plane", 0))
        for conn in routed.connections:
            for seg in conn.path:
                if seg.is_point:
                    continue
                (x1, y1), (x2, y2) = (seg.a.x, seg.a.y), (seg.b.x, seg.b.y)
                c1 = to_cell(x1, y1)
                c2 = to_cell(x2, y2)
                glyph = h_glyph if seg.is_horizontal else v_glyph
                if seg.is_horizontal:
                    for cx in range(min(c1[0], c2[0]), max(c1[0], c2[0]) + 1):
                        _blend(canvas, cx, c1[1], glyph, wire_glyphs)
                else:
                    for cy in range(min(c1[1], c2[1]), max(c1[1], c2[1]) + 1):
                        _blend(canvas, c1[0], cy, glyph, wire_glyphs)
    for net_id, terms in result.tig.all_terminals().items():
        for t in terms:
            x, y = grid.coord_of(t.v_idx, t.h_idx)
            cx, cy = to_cell(x, y)
            canvas[cy][cx] = "o"
    plot = "\n".join("".join(row) for row in canvas)
    if legend:
        plot += "\n" + levelb_legend(result)
    return plot


def _blend(
    canvas: list[list[str]], x: int, y: int, glyph: str, wire_glyphs: set[str]
) -> None:
    current = canvas[y][x]
    if current in (" ", "."):
        canvas[y][x] = glyph
    elif current != glyph and current in wire_glyphs:
        canvas[y][x] = "+"
