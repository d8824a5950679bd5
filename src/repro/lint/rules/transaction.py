"""Transaction-discipline rules: the journal contract, enforced.

The transactional state layer (PR 2, docs/ARCHITECTURE.md) guarantees
O(cells-touched) rip-up and exact rollback *only if* every occupancy
mutation flows through the journaling primitives:

* ``txn.commit`` — ``commit_path`` / ``rip_net`` calls outside the
  grid package must sit lexically inside a ``with *.transaction():``
  block.  Sites that run under an *ambient* transaction held by a
  caller are legitimate but invisible to a lexical check — they carry
  a pragma naming the caller that owns the scope, which is exactly the
  documentation the contract wants at each call site.
* ``txn.mutate`` — nothing outside ``grid/occupancy.py`` may *write*
  the private occupancy state (``_h_owner``, ``_v_owner``,
  ``_unrouted_terms``, ``_net_ledger``, ``_journal``, ``_txns``): a
  direct array store bypasses the ledger and the journal, silently
  breaking rip-up and rollback.  Reads of the private arrays outside
  the grid package are warnings — they tie the reader to the grid's
  array layout and should go through ``snapshot()`` or the query API.
"""

from __future__ import annotations

import ast

from repro.lint.base import FileRule
from repro.lint.context import ModuleContext, dotted_name
from repro.lint.violations import LintViolation, Severity

__all__ = ["CommitScopeRule", "OccupancyMutationRule"]

#: Modules allowed to call the journaling primitives bare: the storage
#: layer itself owns the journal.
_GRID_PACKAGE = "repro.grid"

_JOURNALED_CALLS = frozenset({"commit_path", "rip_net"})

#: Private occupancy state. Everything here is owned by the
#: ledger/journal machinery in grid/occupancy.py.
_OCC_PRIVATE = frozenset(
    {
        "_h_owner",
        "_v_owner",
        "_unrouted_terms",
        "_net_ledger",
        "_journal",
        "_txns",
    }
)

#: Container-mutating method names (list/dict/set): calling one of
#: these *through* a private occupancy attribute is a write.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "clear",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "add",
        "discard",
    }
)

#: Modules allowed to touch the private occupancy state directly.
_OCC_OWNERS = ("repro.grid.occupancy",)


class CommitScopeRule(FileRule):
    rule_id = "txn.commit"
    contract = (
        "commit_path/rip_net outside repro.grid must run inside a "
        "grid transaction (lexically, or under a pragma naming the "
        "caller that holds the ambient transaction)."
    )

    def check(self, ctx: ModuleContext) -> list[LintViolation]:
        if ctx.module == _GRID_PACKAGE or ctx.module.startswith(
            _GRID_PACKAGE + "."
        ):
            return []
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in _JOURNALED_CALLS
            ):
                continue
            if self._under_transaction(ctx, node):
                continue
            out.append(
                self.violation(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f".{func.attr}() outside a lexical grid "
                    "transaction: wrap in `with grid.transaction():` "
                    "or pragma naming the caller that holds the "
                    "ambient transaction",
                )
            )
        return out

    @staticmethod
    def _under_transaction(ctx: ModuleContext, node: ast.AST) -> bool:
        for ancestor in ctx.ancestors(node):
            if not isinstance(ancestor, ast.With):
                continue
            for item in ancestor.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    name = dotted_name(expr.func)
                    if name is not None and name.split(".")[-1] == (
                        "transaction"
                    ):
                        return True
        return False


class OccupancyMutationRule(FileRule):
    rule_id = "txn.mutate"
    contract = (
        "Private occupancy state is written only by grid/occupancy.py; "
        "direct stores elsewhere bypass the ledger and journal.  Reads "
        "elsewhere tie the reader to the grid's array layout (warning)."
    )

    def check(self, ctx: ModuleContext) -> list[LintViolation]:
        if ctx.module in _OCC_OWNERS:
            return []
        out: list[LintViolation] = []
        flagged_lines: set[tuple[int, str]] = set()

        def flag(
            node: ast.AST, message: str, severity: Severity
        ) -> None:
            key = (node.lineno, message.split(";")[0])
            if key in flagged_lines:
                return
            flagged_lines.add(key)
            out.append(
                self.violation(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    message,
                    severity=severity,
                )
            )

        written: set[int] = set()
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                priv = self._private_attr(target)
                if priv is not None:
                    written.add(id(priv))
                    flag(
                        target,
                        f"direct write to private occupancy state "
                        f".{priv.attr}; mutate through the "
                        "RoutingGrid API (occupy_*/commit_path/"
                        "rip_net) so the ledger and journal stay "
                        "exact",
                        Severity.ERROR,
                    )
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATOR_METHODS:
                    priv = self._private_attr(node.func.value)
                    if priv is not None:
                        written.add(id(priv))
                        flag(
                            node,
                            f"mutating call through private occupancy "
                            f"state .{priv.attr}; use the RoutingGrid "
                            "API instead",
                            Severity.ERROR,
                        )
        # Read pass: any remaining Load access to the private names.
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _OCC_PRIVATE
                and id(node) not in written
                and isinstance(node.ctx, ast.Load)
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
            ):
                flag(
                    node,
                    f"read of private occupancy state .{node.attr} "
                    "outside the grid package; use snapshot()/the "
                    "query API rather than the grid's array layout",
                    Severity.WARNING,
                )
        out.sort(key=lambda v: (v.line, v.col))
        return out

    @staticmethod
    def _private_attr(node: ast.expr) -> ast.Attribute | None:
        """The private-occupancy Attribute inside a target expression.

        Only *foreign*-private access counts: ``grid._h_owner`` reaches
        into another object's journal state, ``self._txns`` is a
        class's own attribute that merely shares a name (e.g.
        ``PlaneSetTransaction`` aggregates per-plane transactions in
        its own ``_txns``).
        """
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in _OCC_PRIVATE
                and not (
                    isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                )
            ):
                return sub
        return None
