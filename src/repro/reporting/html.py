"""Single-file HTML reports for flow results.

Bundles the layout SVG, the text routing report, and the congestion
heatmap into one self-contained document a user can open or attach -
no external assets, no JavaScript.
"""

from __future__ import annotations

import html

from repro.analysis import routing_report

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       color: #222; max-width: 1100px; }
h1 { font-size: 1.4em; border-bottom: 2px solid #444; padding-bottom: .3em; }
h2 { font-size: 1.1em; margin-top: 1.6em; }
pre { background: #f6f6f6; border: 1px solid #ddd; border-radius: 6px;
      padding: 1em; overflow-x: auto; font-size: 12px; line-height: 1.35; }
.svgbox { border: 1px solid #ddd; border-radius: 6px; padding: .5em;
          background: white; overflow: auto; max-height: 720px; }
.metrics { display: flex; gap: 2em; flex-wrap: wrap; margin: 1em 0; }
.metric { background: #f0f4f8; border-radius: 8px; padding: .8em 1.2em; }
.metric .value { font-size: 1.3em; font-weight: 600; }
.metric .label { font-size: .8em; color: #667; }
"""


def _metric(label: str, value: str) -> str:
    return (
        f'<div class="metric"><div class="value">{html.escape(value)}</div>'
        f'<div class="label">{html.escape(label)}</div></div>'
    )


def html_report(
    result,
    *,
    scale: float = 0.5,
    top_n: int = 8,
) -> str:
    """A self-contained HTML page for a :class:`~repro.flow.FlowResult`."""
    from repro.viz.svg import svg_flow_result

    title = f"{result.design} / {result.flow}"
    metrics = [
        _metric("layout area (lambda^2)", f"{result.layout_area:,}"),
        _metric("wire length (lambda)", f"{result.wire_length:,}"),
        _metric("vias", f"{result.via_count:,}"),
        _metric("completion", f"{result.completion:.1%}"),
    ]
    if result.levelb is not None:
        metrics.append(
            _metric(
                "level B nets",
                f"{result.levelb.nets_completed}/{result.levelb.nets_attempted}",
            )
        )
    report_text = routing_report(result, top_n=top_n)
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>Routing report: {html.escape(title)}</h1>",
        '<div class="metrics">' + "".join(metrics) + "</div>",
        "<h2>Layout</h2>",
        '<div class="svgbox">' + svg_flow_result(result, scale=scale) + "</div>",
        "<h2>Details</h2>",
        "<pre>" + html.escape(report_text) + "</pre>",
        "</body></html>",
    ]
    return "\n".join(parts)
