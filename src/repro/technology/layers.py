"""Metal layers, preferred routing directions and spacing tables."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple


class RoutingDirection(enum.Enum):
    """Preferred wiring direction of a metal layer."""

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"

    @property
    def orthogonal(self) -> "RoutingDirection":
        if self is RoutingDirection.HORIZONTAL:
            return RoutingDirection.VERTICAL
        return RoutingDirection.HORIZONTAL


class WidthSpacingTuple(NamedTuple):
    """One row of a piecewise width-dependent spacing table.

    Real design manuals (and hammer's ``stackup.py``, which this models)
    express metal spacing as a step function of drawn width: any wire at
    least ``width_at_least`` lambda wide must keep ``min_spacing`` lambda
    of clearance to neighbouring shapes on the same layer.  A table is a
    sorted sequence of these rows, the first anchored at width 0.
    """

    width_at_least: int
    min_spacing: int


@dataclass(frozen=True)
class Layer:
    """A routing metal layer.

    Attributes
    ----------
    index:
        1-based position in the stack (metal1 = 1).
    name:
        Human-readable name, e.g. ``"metal3"``.
    direction:
        Preferred routing direction under the reserved-layer model.
    pitch:
        Track-to-track spacing in lambda; grows with ``index`` in real
        processes, which is the effect the paper's area model exploits.
    width:
        Drawn wire width in lambda.
    sheet_resistance:
        Ohms per square.  Upper layers are thicker metal, so their
        sheet resistance is lower - combined with their wider lines
        this is why the paper routes "long distance interconnections
        ... in level B using wider lines to yield shorter propagation
        delays".
    cap_per_lambda:
        Wire capacitance in fF per lambda of length.
    min_width:
        Minimum legal drawn width in lambda, or ``None`` when the layer
        has no constraint beyond ``width`` itself.  Thick upper layers
        in real stackups forbid minimum-size wires; ``repro.check``'s
        ``drc.width`` rule enforces this against routed output.
    spacing_table:
        Piecewise width-dependent spacing rows, sorted by
        ``width_at_least`` with the first row at width 0.  Empty means
        the uniform default ``pitch - width`` (the clearance two
        adjacent minimum-width tracks already have), which is what keeps
        the preset technologies' behaviour and digests unchanged.
    """

    index: int
    name: str
    direction: RoutingDirection
    pitch: int
    width: int
    sheet_resistance: float = 0.07
    cap_per_lambda: float = 0.20
    min_width: int | None = None
    spacing_table: tuple[WidthSpacingTuple, ...] = ()

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("layer index must be >= 1")
        if self.pitch <= 0 or self.width <= 0:
            raise ValueError("pitch and width must be positive")
        if self.width >= self.pitch:
            raise ValueError(
                f"{self.name}: width {self.width} must be < pitch {self.pitch}"
            )
        for field in ("sheet_resistance", "cap_per_lambda"):
            value = getattr(self, field)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{self.name}: {field} must be finite and positive, got {value}"
                )
        if self.min_width is not None and self.min_width <= 0:
            raise ValueError(f"{self.name}: min_width must be positive")
        if self.spacing_table:
            rows = tuple(
                WidthSpacingTuple(int(r[0]), int(r[1]))
                for r in self.spacing_table
            )
            object.__setattr__(self, "spacing_table", rows)
            if rows[0].width_at_least != 0:
                raise ValueError(
                    f"{self.name}: spacing table must start at width 0 "
                    f"(got {rows[0].width_at_least})"
                )
            for prev, cur in zip(rows, rows[1:]):
                if cur.width_at_least <= prev.width_at_least:
                    raise ValueError(
                        f"{self.name}: spacing table widths must be "
                        "strictly increasing"
                    )
            for row in rows:
                if row.min_spacing <= 0:
                    raise ValueError(
                        f"{self.name}: spacing table spacings must be positive"
                    )

    @property
    def resistance_per_lambda(self) -> float:
        """Wire resistance in ohms per lambda of length."""
        return self.sheet_resistance / self.width

    def min_spacing_for(self, width: int) -> int:
        """Required same-layer clearance for a wire ``width`` lambda wide.

        The lookup takes the maximum ``min_spacing`` over every table row
        whose ``width_at_least`` the wire meets, which makes the result
        monotonically non-decreasing in width by construction (the
        property the hypothesis suite pins).  With no table the uniform
        default is ``pitch - width`` — exactly the clearance between two
        adjacent minimum-width tracks, so single-track wires on a
        table-free layer are always legal.
        """
        if width <= 0:
            raise ValueError("wire width must be positive")
        if not self.spacing_table:
            return self.pitch - self.width
        return max(
            row.min_spacing
            for row in self.spacing_table
            if row.width_at_least <= width
        )

    def wire_width(self, span: int) -> int:
        """Drawn width of a wire occupying ``span`` adjacent tracks.

        A multi-track wire is drawn as one shape covering its tracks:
        the base width plus one pitch per extra track.
        """
        if span < 1:
            raise ValueError("track span must be >= 1")
        return self.width + (span - 1) * self.pitch

    def guard_tracks(self, span: int) -> int:
        """Guard tracks a ``span``-track wire needs on *each* side.

        The wire's drawn width sets its required spacing through the
        table; the guard is however many whole neighbouring tracks must
        stay clear so that the nearest legal foreign wire (minimum
        width, on-track) satisfies it.  A table-free layer needs no
        guards for any span — adjacent-track clearance is already the
        default spacing.
        """
        spacing = self.min_spacing_for(self.wire_width(span))
        # A foreign wire g+1 tracks from the wire edge sits at clearance
        # (g+1)*pitch - width; the guard is the smallest g making that
        # legal.
        guard = -(-(spacing + self.width) // self.pitch) - 1
        return max(0, guard)

    @property
    def is_horizontal(self) -> bool:
        return self.direction is RoutingDirection.HORIZONTAL

    @property
    def is_vertical(self) -> bool:
        return self.direction is RoutingDirection.VERTICAL

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name
