"""Static analysis of the project's own contracts.

``repro.lint`` is the compile-time sibling of :mod:`repro.check`: the
checker verifies a *routed result* against the paper's geometric
rules; the linter verifies the *source tree* against the invariants
the codebase promises — determinism of the routing packages,
transaction discipline around the occupancy journal, process-pool
payload safety, serve-layer lock coverage, digest completeness.

Dependency-free (stdlib ``ast`` only), deterministic (sorted files,
registry-ordered rules, location-sorted findings) and suppression is
in-source and justified::

    grid.rip_net(net_id)  # repro: allow[txn.commit] ambient txn held by caller

Entry points: :func:`lint_paths` (library), ``repro lint`` (CLI).
The rule catalogue lives in docs/STATIC_ANALYSIS.md.
"""

from repro.lint.base import FileRule, ProjectRule, Rule
from repro.lint.context import ModuleContext, Pragma, ProjectContext
from repro.lint.engine import iter_python_files, lint_paths
from repro.lint.rules import (
    ALL_RULES,
    FILE_RULES,
    PRAGMA_RULE_ID,
    PROJECT_RULES,
    all_rule_ids,
    rules_for_ids,
)
from repro.lint.violations import LintReport, LintViolation, Severity

__all__ = [
    "ALL_RULES",
    "FILE_RULES",
    "PRAGMA_RULE_ID",
    "PROJECT_RULES",
    "FileRule",
    "LintReport",
    "LintViolation",
    "ModuleContext",
    "Pragma",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "Severity",
    "all_rule_ids",
    "iter_python_files",
    "lint_paths",
    "rules_for_ids",
]
