"""SVG rendering of placed layouts with level B routing (Figure 3)."""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.geometry import Rect

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.router import LevelBResult
    from repro.flow.metrics import FlowResult

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def _net_color(net_id: int) -> str:
    return _PALETTE[(net_id - 1) % len(_PALETTE)]


def _plane_dash(plane: int) -> str:
    """SVG ``stroke-dasharray`` attribute for an over-cell plane.

    Plane 0 stays solid (the historical rendering); higher planes get
    progressively longer dashes so stacked pairs read at a glance.
    """
    if plane <= 0:
        return ""
    return f' stroke-dasharray="{2 + 2 * plane} 2"'


def _plane_legend(levelb: "LevelBResult", x: float, y: float) -> list[str]:
    """A per-plane legend group, labelled by the routed technology's
    layer names (:meth:`~repro.core.router.LevelBResult.plane_labels`)."""
    parts = ['<g font-size="10" fill="#333">']
    for p, label in enumerate(levelb.plane_labels()):
        ly = y + 14 * p
        parts.append(
            f'<line x1="{x:.1f}" y1="{ly:.1f}" x2="{x + 24:.1f}" '
            f'y2="{ly:.1f}" stroke="#333" stroke-width="2"{_plane_dash(p)}/>'
        )
        parts.append(
            f'<text x="{x + 30:.1f}" y="{ly + 3:.1f}">plane {p}: {label}</text>'
        )
    parts.append("</g>")
    return parts


def svg_layout(
    bounds: Rect,
    *,
    cells: Sequence = (),
    levelb: "LevelBResult" | None = None,
    obstacles: Sequence[Rect] = (),
    scale: float = 0.5,
    title: str = "",
    legend: bool = False,
) -> str:
    """An SVG document: cells, obstacles and level B wiring.

    Horizontal segments draw thicker than vertical ones so each plane's
    layer pair reads at a glance; corner vias are dots.  Results routed
    on several over-cell planes draw higher planes dashed
    (:func:`_plane_dash`); ``legend`` adds a per-plane key whose layer
    labels are the routed technology's layer names, never hard-coded.
    The y axis is flipped so the layout origin sits bottom-left.
    """
    w = bounds.width * scale
    h = bounds.height * scale

    def sx(x: int) -> float:
        return (x - bounds.x1) * scale

    def sy(y: int) -> float:
        return h - (y - bounds.y1) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
        f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect width="{w:.0f}" height="{h:.0f}" fill="#fafafa"/>',
    ]
    if title:
        parts.append(
            f'<title>{title}</title>'
        )
    for cell in cells:
        box = cell.bounds
        parts.append(
            f'<rect x="{sx(box.x1):.1f}" y="{sy(box.y2):.1f}" '
            f'width="{box.width * scale:.1f}" height="{box.height * scale:.1f}" '
            'fill="#e8e8e8" stroke="#888" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx(box.x1) + 3:.1f}" y="{sy(box.y2) + 11:.1f}" '
            f'font-size="9" fill="#555">{getattr(cell, "name", "")}</text>'
        )
    for obs in obstacles:
        parts.append(
            f'<rect x="{sx(obs.x1):.1f}" y="{sy(obs.y2):.1f}" '
            f'width="{obs.width * scale:.1f}" height="{obs.height * scale:.1f}" '
            'fill="#f2c4c4" stroke="#c04040" stroke-dasharray="4 2"/>'
        )
    if levelb is not None:
        grid = levelb.tig.grid
        for routed in levelb.routed:
            color = _net_color(routed.net_id)
            dash = _plane_dash(getattr(routed, "plane", 0))
            for conn in routed.connections:
                for seg in conn.path:
                    if seg.is_point:
                        continue
                    width_px = 2.0 if seg.is_horizontal else 1.2
                    parts.append(
                        f'<line x1="{sx(seg.a.x):.1f}" y1="{sy(seg.a.y):.1f}" '
                        f'x2="{sx(seg.b.x):.1f}" y2="{sy(seg.b.y):.1f}" '
                        f'stroke="{color}" stroke-width="{width_px}"{dash}/>'
                    )
                for v_idx, h_idx in conn.corners:
                    x, y = grid.coord_of(v_idx, h_idx)
                    parts.append(
                        f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.2" '
                        f'fill="{color}"/>'
                    )
        for net_id, terms in levelb.tig.all_terminals().items():
            color = _net_color(net_id)
            for t in terms:
                x, y = grid.coord_of(t.v_idx, t.h_idx)
                parts.append(
                    f'<rect x="{sx(x) - 2.5:.1f}" y="{sy(y) - 2.5:.1f}" '
                    f'width="5" height="5" fill="white" stroke="{color}"/>'
                )
        if legend:
            parts.extend(_plane_legend(levelb, 8.0, 14.0))
    parts.append("</svg>")
    return "\n".join(parts)


def svg_flow_result(
    result: "FlowResult",
    scale: float = 0.5,
    show_level_a: bool = True,
    legend: bool = False,
) -> str:
    """Render a flow result to SVG.

    Draws the placed cells, any level B (over-cell) wiring, and - when
    ``show_level_a`` is set and the flow kept its channel routes - the
    level A channel wiring inside the channel strips (grey trunks and
    jogs, so the over-cell colours stay legible on top).  ``legend``
    adds the per-plane layer key (:func:`_plane_legend`).
    """
    cells = []
    if result.placement is not None:
        cells = list(result.placement.design.cells.values())
    doc = svg_layout(
        result.bounds,
        cells=cells,
        levelb=result.levelb,
        scale=scale,
        title=f"{result.design} / {result.flow}",
        legend=legend,
    )
    if not show_level_a or result.channel_routes is None:
        return doc
    overlay = _level_a_overlay(result, scale)
    return doc.replace("</svg>", overlay + "\n</svg>")


def _level_a_overlay(result: "FlowResult", scale: float) -> str:
    """Grey channel wiring drawn inside each channel strip."""
    placement = result.placement
    global_route = result.global_route
    if placement is None or global_route is None:
        return ""
    bounds = result.bounds
    h = bounds.height * scale
    pitch = global_route.pitch
    margin_x = (
        bounds.width
        - placement.core_width
        - result.side_widths[0]
        - result.side_widths[1]
    ) // 2
    x0 = margin_x + result.side_widths[0]
    strips = placement.channel_y_ranges(
        result.channel_heights,
        margin=(bounds.height - sum(result.channel_heights)
                - sum(r.height for r in placement.rows)) // 2,
    )

    def sx(x: float) -> float:
        return (x - bounds.x1) * scale

    def sy(y: float) -> float:
        return h - (y - bounds.y1) * scale

    parts = ['<g stroke="#9a9a9a" stroke-width="0.8" opacity="0.85">']
    for spec, route, strip in zip(
        global_route.specs, result.channel_routes, strips
    ):
        if route.tracks == 0 and not route.jogs:
            continue
        track_pitch = max(1, (strip.height) // (route.tracks + 1))

        def row_y(row: int) -> float:
            # Row -1 = top boundary of the strip, growing down.
            return strip.y2 - (row + 1) * track_pitch

        def col_x(col: int) -> float:
            return x0 + spec.column_x(col, pitch)

        for span in route.spans:
            y = row_y(span.track)
            parts.append(
                f'<line x1="{sx(col_x(span.c1)):.1f}" y1="{sy(y):.1f}" '
                f'x2="{sx(col_x(span.c2)):.1f}" y2="{sy(y):.1f}"/>'
            )
        for jog in route.jogs:
            x = col_x(jog.column)
            y1 = strip.y2 if jog.r1 == -1 else row_y(jog.r1)
            y2 = strip.y1 if jog.r2 == route.tracks else row_y(jog.r2)
            parts.append(
                f'<line x1="{sx(x):.1f}" y1="{sy(y1):.1f}" '
                f'x2="{sx(x):.1f}" y2="{sy(y2):.1f}"/>'
            )
    parts.append("</g>")
    return "\n".join(parts)
