"""Process-pool safety rules for the dispatch and serve subsystems.

The batch job runner (``repro.dispatch.jobs``) pushes work onto
``concurrent.futures`` executors.  The serve job queue does not: it
runs each spec in-line on its own worker threads, and the rules scan
``repro.serve`` so that stays safe if it ever hands work to a pool.
Process pools pickle the callable and its arguments; anything that is
not a module-level function — a lambda, a nested ``def`` closing over
local state, a bound method — either fails to pickle or, worse,
pickles a *copy* of shared-mutable state and silently diverges from an
in-line run.

* ``pool.payload`` — the callable handed to an *executor's*
  ``.submit(...)`` must be a module-level function (or a module
  attribute).  A thread-mode-only submission path that deliberately
  accepts a closure must carry a pragma naming the runtime guard that
  keeps it off process pools.  The rule keys on the receiver name — a
  ``.submit`` through anything named ``*executor*`` — so domain-level
  ``submit`` methods that take *data* (``JobQueue.submit(spec)``) are
  out of scope; the convention is that raw ``concurrent.futures``
  handles are named ``executor``/``_executor``, which the codebase
  already follows.
* ``pool.default`` — mutable default arguments (``[]``, ``{}``,
  ``set()``) on functions in the worker-payload modules: defaults are
  evaluated once per process, so a mutable default is state shared
  between jobs in the same worker but *not* across workers — the
  exact shape of bug the bit-identity contract exists to prevent.
"""

from __future__ import annotations

import ast

from repro.lint.base import FileRule
from repro.lint.context import ModuleContext
from repro.lint.violations import LintViolation

__all__ = ["MutableDefaultRule", "PoolPayloadRule"]

POOL_PACKAGES = ("repro.dispatch", "repro.serve")

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


class PoolPayloadRule(FileRule):
    rule_id = "pool.payload"
    contract = (
        "Callables submitted to executors must be module-level "
        "functions: closures and bound methods are unpicklable or "
        "smuggle shared-mutable state into workers."
    )
    packages = POOL_PACKAGES

    def check(self, ctx: ModuleContext) -> list[LintViolation]:
        out: list[LintViolation] = []
        top_level = ctx.top_level_names()
        modules = ctx.imported_modules()
        nested = self._nested_def_names(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr == "submit"
            ):
                continue
            if not self._is_executor_receiver(func.value):
                continue
            if not node.args:
                continue
            payload = node.args[0]
            reason = self._payload_problem(
                payload, top_level, modules, nested
            )
            if reason is not None:
                out.append(
                    self.violation(
                        ctx,
                        payload.lineno,
                        payload.col_offset,
                        f"executor payload is {reason}; submit a "
                        "module-level function so process pools can "
                        "pickle it (or pragma naming the runtime "
                        "guard that keeps this path thread-only)",
                    )
                )
        return out

    @staticmethod
    def _is_executor_receiver(node: ast.expr) -> bool:
        """Does the ``.submit`` receiver look like a futures executor?

        Matches any Name/Attribute chain whose last component contains
        ``executor`` (``executor``, ``self._executor``, ``pool.executor``).
        """
        if isinstance(node, ast.Attribute):
            return "executor" in node.attr.lower()
        if isinstance(node, ast.Name):
            return "executor" in node.id.lower()
        return False

    @staticmethod
    def _nested_def_names(ctx: ModuleContext) -> set[str]:
        """Names of functions defined inside other functions."""
        nested: set[str] = set()
        for outer in ast.walk(ctx.tree):
            if not isinstance(
                outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            for sub in ast.walk(outer):
                if sub is outer:
                    continue
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.add(sub.name)
        return nested

    @staticmethod
    def _payload_problem(
        payload: ast.expr,
        top_level: set[str],
        modules: set[str],
        nested: set[str],
    ) -> str | None:
        if isinstance(payload, ast.Lambda):
            return "a lambda"
        if isinstance(payload, ast.Name):
            if payload.id in nested:
                return f"the nested function {payload.id!r} (a closure)"
            if payload.id in top_level:
                return None
            return f"the local name {payload.id!r} (not module-level)"
        if isinstance(payload, ast.Attribute):
            base = payload.value
            if isinstance(base, ast.Name) and base.id in modules:
                return None  # module.function — picklable by name
            return (
                f"the bound attribute .{payload.attr} (instance state "
                "travels with it)"
            )
        if isinstance(payload, ast.Call):
            return "a call result (evaluate to a module-level function)"
        return "not a module-level function"


class MutableDefaultRule(FileRule):
    rule_id = "pool.default"
    contract = (
        "No mutable default arguments in worker-payload modules: "
        "defaults evaluate once per process and become state shared "
        "between jobs on the same worker."
    )
    packages = POOL_PACKAGES

    def check(self, ctx: ModuleContext) -> list[LintViolation]:
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    out.append(
                        self.violation(
                            ctx,
                            default.lineno,
                            default.col_offset,
                            f"mutable default argument on "
                            f"{node.name}(); default to None (or a "
                            "frozen value) and build the container "
                            "in the body",
                        )
                    )
        return out

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS
        )
