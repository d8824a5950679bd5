"""Structured lint findings and reports.

A :class:`LintViolation` is one contract breach at one source location;
a :class:`LintReport` aggregates a whole analysis run.  The shapes
mirror :mod:`repro.check.violations` (the runtime verification engine)
so the two subsystems serialise and render the same way: plain data,
rule-id keyed, ``--json``-friendly.

Lint reuses the checker's :class:`~repro.check.violations.Severity`
scale.  ``ERROR`` marks a broken project contract (the build should
fail); ``WARNING`` marks heuristic findings that need a human read
(``repro lint --strict`` gates on those too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.check.violations import Severity

__all__ = ["LintReport", "LintViolation", "Severity"]


@dataclass(frozen=True)
class LintViolation:
    """One contract breach at one source location.

    Attributes
    ----------
    rule:
        A rule id from :mod:`repro.lint.rules` (``det.clock``,
        ``txn.commit``, ...; catalogued in docs/STATIC_ANALYSIS.md).
    path:
        Repo-relative posix path of the offending file.
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description naming the contract and the fix.
    severity:
        See :class:`~repro.check.violations.Severity`.
    snippet:
        The stripped source line, carried in the JSON report.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR
    snippet: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.value.upper()} {self.rule}: {self.message}"
        )


@dataclass
class LintReport:
    """Aggregate outcome of one static-analysis run."""

    violations: list[LintViolation] = field(default_factory=list)
    rules_run: tuple[str, ...] = ()
    files_scanned: int = 0
    #: Findings silenced by an in-source suppression pragma.
    suppressed: int = 0

    def extend(self, violations: list[LintViolation]) -> None:
        self.violations.extend(violations)

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity violation survived filtering."""
        return not any(
            v.severity is Severity.ERROR for v in self.violations
        )

    @property
    def error_count(self) -> int:
        return sum(
            1 for v in self.violations if v.severity is Severity.ERROR
        )

    def by_rule(self, rule: str) -> list[LintViolation]:
        return [v for v in self.violations if v.rule == rule]

    def counts(self) -> dict[str, int]:
        """Violation count per rule id (only rules that fired)."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out

    def summary(self) -> str:
        """One-line human-readable verdict."""
        filtered = ""
        if self.suppressed:
            filtered = f" ({self.suppressed} pragma-suppressed)"
        if not self.violations:
            return (
                f"lint: CLEAN — {self.files_scanned} file(s), "
                f"{len(self.rules_run)} rule(s){filtered}"
            )
        parts = ", ".join(
            f"{rule}={n}" for rule, n in sorted(self.counts().items())
        )
        return (
            f"lint: {self.error_count} error(s), "
            f"{len(self.violations)} violation(s): {parts}{filtered}"
        )

    def render(self, limit: int = 50) -> str:
        """Multi-line report: summary plus the first ``limit`` findings."""
        lines = [self.summary()]
        lines.extend(f"  {v}" for v in self.violations[:limit])
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "repro-lint-report",
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "counts": self.counts(),
            "suppressed": self.suppressed,
            "violations": [v.to_dict() for v in self.violations],
        }
