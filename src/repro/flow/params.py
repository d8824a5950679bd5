"""Flow configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import LevelBConfig
from repro.core.router import Obstacle
from repro.partition import PartitionStrategy
from repro.technology import Technology


@dataclass(frozen=True)
class FlowParams:
    """Knobs shared by every flow.

    Level A always channel-routes with the greedy router; the core
    margin and Table 3's channel-area factor are pipeline constants.

    Attributes
    ----------
    technology:
        The layer stack; the channel substrate uses metal1/metal2,
        level B the reserved over-cell pairs above them (metal3/metal4
        by default — see docs/LAYERS.md).
    partition:
        How nets split into sets A and B (over-cell flow only).
    length_threshold:
        Half-perimeter threshold for ``LONG_TO_B`` partitioning.
    levelb:
        Level B router tuning (cost weights, the MBFS entry cap,
        rescue, rip-up); the router's ``planes``, ``ordering_policy``,
        ``objective`` and ``checked`` arguments come from the fields
        below.
    obstacles:
        Over-cell exclusions forwarded to the level B router.
    checked:
        Run the full independent verification (:func:`repro.check.
        check_flow`) after the flow and attach the report to
        ``FlowResult.check_report``; also turns on the level B
        router's per-commit checked mode.  Off by default.
    planes:
        Over-cell routing planes for level B.  ``1`` (default) is the
        paper's single metal3/metal4 pair and preserves historical
        behavior exactly; ``N > 1`` distributes level B nets across N
        reserved-layer pairs (extending ``technology`` with
        extrapolated pairs when it is too short — see
        :func:`repro.technology.ensure_overcell_planes`).  Values
        below 1 are rejected by the level B router.
    iterate:
        Negotiated-congestion rip-up-and-re-route for level B
        (``repro.iterate`` — docs/ITERATION.md).  Off by default: a
        one-pass run never constructs history costs and its routed
        geometry stays bit-identical to the seed digests.  On, failed
        nets trigger whole-design rip-up passes with per-track history
        costs until the design completes or the iteration/stall budget
        runs out; the convergence report lands in
        ``FlowResult.notes["iterate"]``.
    max_iterations:
        Re-route pass budget when ``iterate`` is on (the initial pass
        is not counted).
    ordering_policy:
        A :data:`repro.core.ordering.POLICIES` name deciding the level
        B net order (``longest-first``, ``congestion`` or ``feature``),
        one-pass or iterated; under ``iterate`` each later pass feeds
        the policy the previous pass's outcome (docs/ITERATION.md).
        An unknown name is rejected by the level B router.
    objective:
        Level B routing objective: ``"wire"`` (default; the paper's
        wire-length-led cost, bit-identical to the seed) or ``"vias"``
        (via minimization — the plane assignment's via price scaled by
        the technology's via costs, and a dearer corner in every Lee
        search; docs/TECHNOLOGY.md).
    """

    technology: Technology = field(default_factory=Technology.four_layer)
    partition: PartitionStrategy = PartitionStrategy.CRITICAL_TO_A
    length_threshold: int | None = None
    levelb: LevelBConfig = field(default_factory=LevelBConfig)
    obstacles: tuple[Obstacle, ...] = ()
    checked: bool = False
    planes: int = 1
    iterate: bool = False
    max_iterations: int = 8
    ordering_policy: str = "longest-first"
    objective: str = "wire"

    @property
    def channel_pitch(self) -> int:
        """Track/column pitch of the channel layers (metal1/metal2)."""
        return self.technology.layer(1).pitch
