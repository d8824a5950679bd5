"""Verification entry points: whole-result, whole-flow and grid checks.

The functions here bundle the individual passes (:mod:`~repro.check.drc`,
:mod:`~repro.check.lvs`, :mod:`~repro.check.sanitize`) into
:class:`~repro.check.violations.CheckReport` runs and emit the outcome
through the :mod:`repro.instrument` collector (``check`` span,
``check.*`` counters, one ``check.violation`` event per finding).

``sanitize_commit`` is the cheap per-commit slice used by the router's
opt-in checked mode; ``check_levelb`` / ``check_flow`` are the full
independent verification behind the ``repro check`` CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import instrument
from repro.instrument.names import (
    CHECK_RULES_EVALUATED,
    CHECK_VIOLATIONS,
    CHECKS_RUN,
    EVT_CHECK_VIOLATION,
    SPAN_CHECK,
    SPAN_CHECK_COMMIT,
)
from repro.check.drc import (
    check_corners,
    check_obstacles,
    check_shorts,
    check_spacing,
    check_stacks,
    check_tracks,
    check_widths,
)
from repro.check.extract import extract_levelb
from repro.check.lvs import check_connectivity
from repro.check.rules import (
    RULE_CHANNEL,
    RULE_CORNER,
    RULE_CORNER_CLAIM,
    RULE_CORNER_PER_TRACK,
    RULE_DANGLING,
    RULE_JOURNAL,
    RULE_LAYER,
    RULE_LEDGER,
    RULE_MERGED,
    RULE_OBSTACLE,
    RULE_OPEN,
    RULE_SHORT,
    RULE_SPACING,
    RULE_STACK,
    RULE_TRACK,
    RULE_WIDTH,
)
from repro.check.sanitize import (
    audit_grid,
    check_connection_invariants,
    check_invariants,
    check_layer_assignment,
)
from repro.check.violations import CheckReport, Severity, Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.router import LevelBResult, RoutedNet
    from repro.flow.metrics import FlowResult
    from repro.grid import RoutingGrid

#: Rules evaluated by :func:`check_levelb` (layer assignment needs the
#: partition and is added when one is supplied).
LEVELB_RULES: tuple[str, ...] = (
    RULE_SHORT,
    RULE_TRACK,
    RULE_CORNER,
    RULE_OBSTACLE,
    RULE_STACK,
    RULE_OPEN,
    RULE_MERGED,
    RULE_DANGLING,
    RULE_CORNER_PER_TRACK,
    RULE_CORNER_CLAIM,
    RULE_LEDGER,
    RULE_JOURNAL,
)

GRID_RULES: tuple[str, ...] = (RULE_LEDGER, RULE_JOURNAL)


def _finish(report: CheckReport) -> CheckReport:
    """Count and publish a finished report through the collector."""
    inst = instrument.active()
    if inst.enabled:
        inst.count(CHECKS_RUN)
        inst.count(CHECK_RULES_EVALUATED, len(report.rules_run))
        inst.count(CHECK_VIOLATIONS, len(report.violations))
        for v in report.violations:
            inst.event(EVT_CHECK_VIOLATION, **v.to_dict())
    return report


def _levelb_violations(
    result: "LevelBResult",
    set_a: "tuple[str, ...] | list[str] | None",
    set_b: "tuple[str, ...] | list[str] | None",
) -> tuple[tuple[str, ...], list[Violation]]:
    """The full level B pass as (rules evaluated, violations found)."""
    rules = LEVELB_RULES
    violations: list[Violation] = []
    design = extract_levelb(result)
    grid = result.tig.grid
    violations.extend(check_shorts(design))
    violations.extend(check_tracks(design, grid, result.bounds))
    violations.extend(check_corners(result))
    violations.extend(check_obstacles(design, result.obstacles, grid))
    violations.extend(check_stacks(design, result.num_planes))
    # The technology-rule checks need the width classes realised per
    # net; results from before technologies rode along simply skip them.
    if result.technology is not None:
        rules = (*rules, RULE_WIDTH, RULE_SPACING)
        spans = {
            r.net.name: result.technology.net_footprint(
                r.net.net_class, r.plane
            )[0]
            for r in result.routed
        }
        violations.extend(check_widths(design, result.technology, spans))
        violations.extend(
            check_spacing(design, grid, result.technology, spans)
        )
    violations.extend(check_connectivity(design))
    violations.extend(check_invariants(result))
    if set_b is not None:
        rules = (*rules, RULE_LAYER)
        violations.extend(check_layer_assignment(result, set_a or (), set_b))
    # Every plane keeps its own ledgers and journal; audit them all.
    for plane_grid in result.tig.planes:
        violations.extend(audit_grid(plane_grid))
    return rules, violations


def check_levelb(
    result: "LevelBResult",
    *,
    set_a: "tuple[str, ...] | list[str] | None" = None,
    set_b: "tuple[str, ...] | list[str] | None" = None,
    subject: str = "levelb",
) -> CheckReport:
    """Full independent verification of a level B routing result.

    Re-extracts the wiring from committed paths (never the occupancy
    arrays), then runs the DRC, LVS and invariant passes plus the grid
    bookkeeping audit.  Pass the partition (``set_a``/``set_b`` net
    names) to verify reserved-layer assignment as well.
    """
    with instrument.span(SPAN_CHECK):
        report = CheckReport(subject=subject)
        rules, violations = _levelb_violations(result, set_a, set_b)
        report.extend(violations)
        report.rules_run = rules
    return _finish(report)


def check_grid(
    grid: "RoutingGrid", *, expect_closed: bool = True, subject: str = "grid"
) -> CheckReport:
    """Occupancy bookkeeping audit only (ledger replay + journal)."""
    with instrument.span(SPAN_CHECK):
        report = CheckReport(subject=subject, rules_run=GRID_RULES)
        report.extend(audit_grid(grid, expect_closed=expect_closed))
    return _finish(report)


def check_flow(result: "FlowResult") -> CheckReport:
    """Verify everything a flow run produced.

    Level A channel routes re-check against their channel problems
    (rule ``chan.route``); a level B result gets the full
    :func:`check_levelb` treatment, including layer assignment when the
    flow recorded the partition in its notes.
    """
    with instrument.span(SPAN_CHECK):
        rules: tuple[str, ...] = ()
        report = CheckReport(subject=f"{result.design}/{result.flow}")
        if result.channel_routes and result.global_route is not None:
            rules = (*rules, RULE_CHANNEL)
            specs = result.global_route.specs
            for i, (spec, route) in enumerate(
                zip(specs, result.channel_routes)
            ):
                for message in route.violations(spec.problem):
                    report.violations.append(
                        Violation(
                            RULE_CHANNEL,
                            f"channel {i}: {message}",
                        )
                    )
        if result.levelb is not None:
            set_a = result.notes.get("level_a_net_names")
            set_b = result.notes.get("level_b_net_names")
            levelb_rules, violations = _levelb_violations(
                result.levelb, set_a, set_b
            )
            rules = rules + levelb_rules
            report.extend(violations)
        report.rules_run = rules
    return _finish(report)


def sanitize_commit(
    grid: "RoutingGrid", routed: "RoutedNet", *, in_ambient_txn: bool = False
) -> list[Violation]:
    """Checked mode's per-commit slice: one net's invariants + grid audit.

    Runs after each net routes: the paper invariants of the net's own
    connections plus the full ledger replay and journal-balance audit.
    ``in_ambient_txn`` relaxes the journal check for callers running
    inside an outer transaction (the passes of :mod:`repro.iterate`),
    where a populated journal is legitimate.
    """
    with instrument.span(SPAN_CHECK_COMMIT):
        violations = []
        for conn in routed.connections:
            violations.extend(
                check_connection_invariants(routed.net.name, conn, grid)
            )
        violations.extend(
            audit_grid(grid, expect_closed=not in_ambient_txn)
        )
        inst = instrument.active()
        if inst.enabled and violations:
            inst.count(CHECK_VIOLATIONS, len(violations))
            for v in violations:
                inst.event(EVT_CHECK_VIOLATION, **v.to_dict())
    return violations


__all__ = [
    "LEVELB_RULES",
    "GRID_RULES",
    "check_levelb",
    "check_grid",
    "check_flow",
    "sanitize_commit",
    "Severity",
]
