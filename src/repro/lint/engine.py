"""The lint engine: parse, run rules, filter pragmas.

``lint_paths`` is the one entry point; the CLI (``repro lint``) and the
self-lint test are thin wrappers over it.  The run is deterministic by
construction — files are scanned in sorted order, rules run in
registry order, findings sort by location — so two runs over the same
tree produce byte-identical reports (the linter holds itself to the
contract it enforces).

Filtering happens in two layers, in order:

1. **Pragmas** — ``# repro: allow[rule-id] reason`` at the offending
   line (or on a comment line directly above).  A pragma without a
   reason suppresses nothing and is itself a finding
   (``lint.pragma``); on full runs, a pragma that silenced nothing is
   reported as stale.  Pragmas are the only suppression mechanism.
2. **Severity** — ``LintReport.ok`` gates on ERROR; ``--strict`` in
   the CLI gates on any surviving finding.

The run is observable through :mod:`repro.instrument` exactly like the
runtime checker: a ``lint`` span, ``lint.*`` counters and one
``lint.violation`` event per surviving finding.
"""

from __future__ import annotations

from pathlib import Path

from repro import instrument
from repro.instrument.names import (
    EVT_LINT_VIOLATION,
    LINT_FILES,
    LINT_RULES_EVALUATED,
    LINT_RUNS,
    LINT_SUPPRESSED,
    LINT_VIOLATIONS,
    SPAN_LINT,
)
from repro.lint.context import ModuleContext, ProjectContext
from repro.lint.rules import (
    PRAGMA_RULE_ID,
    FileRule,
    ProjectRule,
    rules_for_ids,
)
from repro.lint.violations import LintReport, LintViolation, Severity

__all__ = ["iter_python_files", "lint_paths"]

#: Engine-owned rule id for files the parser rejects.
PARSE_RULE_ID = "lint.parse"


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, sorted and deduplicated."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            found.add(path)
    return sorted(found)


def _parse_modules(
    files: list[Path], root: Path
) -> tuple[list[ModuleContext], list[LintViolation]]:
    modules: list[ModuleContext] = []
    failures: list[LintViolation] = []
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            modules.append(ModuleContext(path, root, source))
        except SyntaxError as exc:
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.as_posix()
            failures.append(
                LintViolation(
                    rule=PARSE_RULE_ID,
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                    severity=Severity.ERROR,
                )
            )
    return modules, failures


def _pragma_findings(
    modules: list[ModuleContext], *, full_run: bool
) -> list[LintViolation]:
    """Reasonless pragmas always; stale pragmas only on full runs."""
    out: list[LintViolation] = []
    for ctx in modules:
        for pragma in ctx.pragmas.values():
            if not pragma.has_reason:
                out.append(
                    LintViolation(
                        rule=PRAGMA_RULE_ID,
                        path=ctx.rel,
                        line=pragma.line,
                        col=0,
                        message=(
                            "suppression pragma without a reason: "
                            "`# repro: allow[rule] <why this site is "
                            "safe>` — a reasonless pragma suppresses "
                            "nothing"
                        ),
                        snippet=ctx.line_at(pragma.line),
                    )
                )
            elif full_run and not pragma.used:
                out.append(
                    LintViolation(
                        rule=PRAGMA_RULE_ID,
                        path=ctx.rel,
                        line=pragma.line,
                        col=0,
                        message=(
                            "stale suppression pragma: no finding for "
                            f"[{', '.join(pragma.rules)}] here — "
                            "delete it so suppressions do not outlive "
                            "the code they excused"
                        ),
                        snippet=ctx.line_at(pragma.line),
                    )
                )
    return out


def lint_paths(
    paths: list[Path],
    *,
    root: Path | None = None,
    select: set[str] | None = None,
) -> LintReport:
    """Run the contract linter over ``paths`` and return the report.

    Parameters
    ----------
    paths:
        Files and/or directories to scan (directories recurse).
    root:
        Project root that repo-relative paths and dotted module names
        are computed against; defaults to the current directory.
    select:
        Rule ids (``det.clock``) or group prefixes (``det``) to run;
        ``None`` runs everything including the pragma audit.
    """
    root = (root or Path.cwd()).resolve()
    with instrument.span(SPAN_LINT):
        report = _lint(paths, root, select)
    inst = instrument.active()
    inst.count(LINT_RUNS)
    inst.count(LINT_FILES, report.files_scanned)
    inst.count(LINT_RULES_EVALUATED, len(report.rules_run))
    inst.count(LINT_VIOLATIONS, len(report.violations))
    inst.count(LINT_SUPPRESSED, report.suppressed)
    for v in report.violations:
        inst.event(
            EVT_LINT_VIOLATION,
            rule=v.rule,
            severity=v.severity.value,
            path=v.path,
            line=v.line,
        )
    return report


def _lint(
    paths: list[Path], root: Path, select: set[str] | None
) -> LintReport:
    rules = rules_for_ids(select)
    pragma_audit = select is None or bool(
        select & {PRAGMA_RULE_ID, PRAGMA_RULE_ID.split(".")[0]}
    )
    full_run = select is None

    files = iter_python_files(paths)
    modules, raw = _parse_modules(files, root)
    by_rel = {ctx.rel: ctx for ctx in modules}
    project = ProjectContext(root, modules)

    for rule in rules:
        if isinstance(rule, FileRule):
            for ctx in modules:
                if rule.applies_to(ctx):
                    raw.extend(rule.check(ctx))
        elif isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project))

    # Pragma filtering: a reasoned pragma at the finding's line (or the
    # comment line above) silences it and is marked used.
    report = LintReport(
        rules_run=tuple(
            [r.rule_id for r in rules]
            + ([PRAGMA_RULE_ID] if pragma_audit else [])
        ),
        files_scanned=len(modules),
    )
    kept: list[LintViolation] = []
    for v in raw:
        ctx = by_rel.get(v.path)
        pragma = (
            ctx.pragma_for(v.line, v.rule) if ctx is not None else None
        )
        if pragma is not None and pragma.has_reason:
            pragma.used.add(v.rule)
            report.suppressed += 1
            continue
        kept.append(v)

    if pragma_audit:
        kept.extend(_pragma_findings(modules, full_run=full_run))

    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    report.extend(kept)
    return report
