"""JSON (de)serialisation of technologies.

Two on-disk shapes are accepted by :func:`load_technology`:

* ``repro-technology`` documents — the canonical snapshot written by
  :func:`save_technology`.  This is also the *canonical serialized
  form* the serve layer digests: any document describing the same
  rules canonicalizes to the same dict here.
* hammer-style *stackup* documents (a ``metals`` list) — ingested via
  :mod:`repro.technology.ingest`.

Width-dependent fields (``min_width``, ``spacing_table``, via ``cost``)
are emitted only when they differ from the defaults, so documents for
the preset technologies — and their digests — are byte-identical to
what earlier revisions produced.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.technology import (
    Layer,
    RoutingDirection,
    Technology,
    ViaRule,
    WidthSpacingTuple,
    technology_from_any,
)

FORMAT_VERSION = 1


def technology_to_dict(tech: Technology) -> dict[str, Any]:
    """A plain-data snapshot of a technology."""
    layers = []
    for layer in tech.layers:
        ld: dict[str, Any] = {
            "index": layer.index,
            "name": layer.name,
            "direction": layer.direction.value,
            "pitch": layer.pitch,
            "width": layer.width,
            "sheet_resistance": layer.sheet_resistance,
            "cap_per_lambda": layer.cap_per_lambda,
        }
        if layer.min_width is not None:
            ld["min_width"] = layer.min_width
        if layer.spacing_table:
            ld["spacing_table"] = [
                {"width_at_least": row.width_at_least,
                 "min_spacing": row.min_spacing}
                for row in layer.spacing_table
            ]
        layers.append(ld)
    vias = []
    for v in tech.vias:
        vd: dict[str, Any] = {"lower": v.lower, "upper": v.upper, "size": v.size}
        if v.cost != ViaRule.cost:
            vd["cost"] = v.cost
        vias.append(vd)
    return {
        "format": "repro-technology",
        "version": FORMAT_VERSION,
        "name": tech.name,
        "layers": layers,
        "vias": vias,
    }


def technology_from_dict(data: dict[str, Any]) -> Technology:
    """Rebuild a :class:`Technology` from :func:`technology_to_dict`."""
    if data.get("format") != "repro-technology":
        raise ValueError("not a repro technology document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported technology format version {data.get('version')}"
        )
    layers = tuple(
        Layer(
            index=ld["index"],
            name=ld["name"],
            direction=RoutingDirection(ld["direction"]),
            pitch=ld["pitch"],
            width=ld["width"],
            sheet_resistance=ld.get("sheet_resistance", Layer.sheet_resistance),
            cap_per_lambda=ld.get("cap_per_lambda", Layer.cap_per_lambda),
            min_width=ld.get("min_width"),
            spacing_table=tuple(
                WidthSpacingTuple(row["width_at_least"], row["min_spacing"])
                for row in ld.get("spacing_table", [])
            ),
        )
        for ld in data["layers"]
    )
    vias = tuple(
        ViaRule(
            lower=vd["lower"],
            upper=vd["upper"],
            size=vd["size"],
            cost=vd.get("cost", ViaRule.cost),
        )
        for vd in data["vias"]
    )
    return Technology(name=data["name"], layers=layers, vias=vias)


def save_technology(tech: Technology, path: str | Path) -> None:
    """Write ``tech`` as JSON."""
    Path(path).write_text(json.dumps(technology_to_dict(tech), indent=2))


def load_technology(path: str | Path) -> Technology:
    """Read a technology JSON: repro-technology or stackup format."""
    return technology_from_any(json.loads(Path(path).read_text()))
