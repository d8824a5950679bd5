"""Human-readable routing reports for flow results."""

from __future__ import annotations


from repro.analysis.congestion import congestion_map
from repro.timing import DriverModel, levelb_net_delays


def routing_report(
    result,
    *,
    driver: DriverModel | None = None,
    top_n: int = 5,
) -> str:
    """A multi-section text report for a :class:`~repro.flow.FlowResult`.

    Sections: headline metrics, channel usage, and - when the flow
    carried a level B stage - over-cell statistics, one congestion
    heatmap per plane, and the slowest nets by Elmore delay.  Planes
    are named and timed by the technology level B routed under
    (:meth:`~repro.core.router.LevelBResult.plane_labels`).
    """
    lines: list[str] = []
    lines.append(f"Routing report: {result.design} / {result.flow}")
    lines.append("=" * len(lines[0]))
    lines.append(
        f"layout  : {result.bounds.width} x {result.bounds.height} "
        f"= {result.layout_area:,} lambda^2"
    )
    lines.append(f"wire    : {result.wire_length:,} lambda")
    lines.append(f"vias    : {result.via_count:,}")
    lines.append(f"complete: {result.completion:.1%}")
    if result.channel_tracks:
        used = [t for t in result.channel_tracks if t > 0]
        lines.append(
            f"channels: {len(result.channel_tracks)} "
            f"({len(used)} occupied; tracks "
            f"{', '.join(str(t) for t in result.channel_tracks)})"
        )
    if result.side_widths != (0, 0):
        lines.append(
            f"side channels: left {result.side_widths[0]}, "
            f"right {result.side_widths[1]} lambda"
        )
    levelb = result.levelb
    if levelb is not None:
        labels = levelb.plane_labels()
        num_planes = len(labels)
        lines.append("")
        header = f"Level B (over-cell, {', '.join(labels)})"
        lines.append(header)
        lines.append("-" * len(header))
        grid = levelb.tig.grid
        lines.append(
            f"grid    : {grid.num_vtracks} x {grid.num_htracks} tracks, "
            f"{levelb.tig.planes.utilization():.1%} of slots used"
        )
        lines.append(
            f"nets    : {levelb.nets_completed}/{levelb.nets_attempted} complete, "
            f"{levelb.total_corners} corner vias, {levelb.ripups} rip-ups"
        )
        if num_planes > 1:
            per_plane = ", ".join(
                f"{label}: {len(levelb.nets_on_plane(p))}"
                for p, label in enumerate(labels)
            )
            lines.append(f"planes  : {per_plane}")
        for p, label in enumerate(labels):
            cmap = congestion_map(levelb.tig.planes[p])
            tag = f" {label}" if num_planes > 1 else ""
            lines.append(
                f"congestion{tag}: mean {cmap.mean:.1%}, peak {cmap.peak:.1%}"
            )
            lines.append(cmap.to_ascii())
        from repro.analysis.wirelength import wirelength_stats

        stats = wirelength_stats(levelb)
        if stats.nets:
            lines.append(
                f"wire quality: {stats.overall_ratio:.3f}x HPWL overall "
                f"(mean {stats.mean_ratio:.3f}, max {stats.max_ratio:.3f} "
                f"on {stats.worst_net})"
            )
        # Time each net on the layers it was routed on.
        tech = levelb.routed_technology
        delays = []
        for routed in levelb.routed:
            for pin_name, delay in levelb_net_delays(
                routed, tech, driver or DriverModel()
            ).items():
                delays.append((delay, routed.net.name, pin_name))
        if delays:
            delays.sort(reverse=True)
            lines.append("")
            lines.append(f"slowest level B pins (Elmore, top {top_n}):")
            for delay, net_name, pin_name in delays[:top_n]:
                lines.append(f"  {delay:8.2f} ps  {net_name} -> {pin_name}")
    return "\n".join(lines)
