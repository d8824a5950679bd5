"""Determinism rules: the bit-identity contract, enforced at the source.

Everything the routing stack guarantees — reproducible sha256 route
digests, content-addressed serve caching — assumes that routing
*decisions* are pure functions of the input.  These rules police the
packages that contract covers (``core``, ``grid``, ``maze``,
``dispatch``, ``globalroute``, ``io``) for the classic leak vectors:

* ``det.clock`` — wall-clock reads (``time.time``, ``datetime.now``,
  ...).  Elapsed-time *measurement* is fine (``perf_counter`` /
  ``monotonic`` feed the instrument spans and never a decision); a
  wall-clock timestamp inside a routing package is either dead weight
  or a nondeterminism bug.
* ``det.random`` — unseeded randomness: module-level ``random.*``
  calls, ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*``.
  Explicitly seeded ``random.Random(seed)`` instances are the
  sanctioned pattern (``bench_suite`` derives per-design seeds by
  sha256) and are not flagged.
* ``det.idkey`` — ``id()`` used to order things: ``key=id``, ``id()``
  inside a ``sorted``/``.sort`` call.  CPython ids are allocation
  addresses; orderings keyed on them differ run to run.
* ``det.setorder`` — iterating a hash-ordered ``set`` where the
  iteration order can escape: a set display/constructor consumed by a
  ``for`` loop, a comprehension, ``list``/``tuple``/``enumerate``/
  ``join``.  Wrap in ``sorted(...)`` (or reduce commutatively and
  pragma with the reason).  Direct set expressions are errors; names a
  light dataflow pass proves set-valued are flagged as warnings.
"""

from __future__ import annotations

import ast

from repro.lint.base import FileRule
from repro.lint.context import ModuleContext, dotted_name
from repro.lint.violations import LintViolation, Severity

__all__ = ["ClockRule", "IdKeyRule", "RandomRule", "SetOrderRule"]

#: The packages the determinism contract covers (docs/PARALLELISM.md,
#: docs/SERVING.md): everything that feeds routing decisions, committed
#: geometry or canonical digests.
DETERMINISM_PACKAGES = (
    "repro.core",
    "repro.grid",
    "repro.maze",
    "repro.dispatch",
    "repro.globalroute",
    "repro.io",
    "repro.iterate",
)

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

_RANDOM_CALLS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)


class ClockRule(FileRule):
    rule_id = "det.clock"
    contract = (
        "No wall-clock reads inside the determinism packages: routing "
        "decisions and digests must be pure functions of the input."
    )
    packages = DETERMINISM_PACKAGES

    def check(self, ctx: ModuleContext) -> list[LintViolation]:
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _CLOCK_CALLS:
                out.append(
                    self.violation(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"wall-clock call {name}() in a determinism "
                        "package; use instrument spans "
                        "(perf_counter) for timing, or pass "
                        "timestamps in from the serving layer",
                    )
                )
        return out


class RandomRule(FileRule):
    rule_id = "det.random"
    contract = (
        "No unseeded randomness inside the determinism packages; "
        "random.Random(seed) instances with derived seeds are the "
        "sanctioned pattern."
    )
    packages = DETERMINISM_PACKAGES

    def check(self, ctx: ModuleContext) -> list[LintViolation]:
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            bad = (
                (name.startswith("random.") and name != "random.Random")
                or name in _RANDOM_CALLS
                or name.startswith("secrets.")
            )
            if bad:
                out.append(
                    self.violation(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"unseeded randomness {name}() in a "
                        "determinism package; derive a seed and use "
                        "a random.Random(seed) instance",
                    )
                )
        return out


class IdKeyRule(FileRule):
    rule_id = "det.idkey"
    contract = (
        "id() must not order or key anything: CPython ids are "
        "allocation addresses and differ run to run."
    )
    packages = DETERMINISM_PACKAGES

    def check(self, ctx: ModuleContext) -> list[LintViolation]:
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            # key=id / key=lambda x: id(x) on any call.
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                if self._is_id_keyed(kw.value):
                    out.append(
                        self.violation(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            "ordering keyed on id(): run-to-run "
                            "nondeterministic; key on a stable field "
                            "(name, index) instead",
                        )
                    )
            # id(...) anywhere inside a sorted(...) / .sort(...) call.
            if self._is_sort_call(node):
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id == "id"
                        ):
                            out.append(
                                self.violation(
                                    ctx,
                                    sub.lineno,
                                    sub.col_offset,
                                    "id() feeding a sort: run-to-run "
                                    "nondeterministic ordering",
                                )
                            )
        return out

    @staticmethod
    def _is_id_keyed(value: ast.AST) -> bool:
        if isinstance(value, ast.Name) and value.id == "id":
            return True
        if isinstance(value, ast.Lambda):
            for sub in ast.walk(value.body):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                ):
                    return True
        return False

    @staticmethod
    def _is_sort_call(node: ast.Call) -> bool:
        if isinstance(node.func, ast.Name) and node.func.id == "sorted":
            return True
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "sort"
        )


#: Wrapping one of these around a set expression neutralises the
#: iteration-order hazard (the consumer is order-insensitive).
_ORDER_SAFE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset", "bool"}
)
#: These consumers materialise or expose the hash order.
_ORDER_LEAKING_CONSUMERS = frozenset(
    {"list", "tuple", "enumerate", "iter", "reversed", "next"}
)


class SetOrderRule(FileRule):
    rule_id = "det.setorder"
    contract = (
        "Set iteration order is hash order: sets feeding loops, "
        "sequences or joins inside the determinism packages must be "
        "sorted first."
    )
    packages = DETERMINISM_PACKAGES

    def check(self, ctx: ModuleContext) -> list[LintViolation]:
        out: list[LintViolation] = []
        for node in ast.walk(ctx.tree):
            if not self._is_set_expr(node):
                continue
            leak = self._leak_context(ctx, node)
            if leak is not None:
                out.append(
                    self.violation(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"set iterated {leak}: iteration order is "
                        "hash order; wrap in sorted(...) or justify "
                        "with a pragma",
                    )
                )
        out.extend(self._inferred_set_loops(ctx))
        return out

    # ------------------------------------------------------------------
    @classmethod
    def _is_set_expr(cls, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return cls._is_set_expr(node.left) or cls._is_set_expr(
                node.right
            )
        return False

    def _leak_context(
        self, ctx: ModuleContext, node: ast.AST
    ) -> str | None:
        """How this set's order escapes, or None when it cannot."""
        parent = ctx.parent_of(node)
        # Hop over binop composition: the leak belongs to the outermost
        # set-valued expression only (children are reported via it).
        if isinstance(parent, ast.BinOp) and self._is_set_expr(parent):
            return None
        if isinstance(parent, ast.For) and parent.iter is node:
            return "by a for loop" if not self._order_safe(ctx, node) else None
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            return (
                "by a comprehension"
                if not self._order_safe(ctx, node)
                else None
            )
        if isinstance(parent, ast.Call) and node in parent.args:
            func = parent.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_LEAKING_CONSUMERS
                and not self._order_safe(ctx, parent)
            ):
                return f"through {func.id}(...)"
            if isinstance(func, ast.Attribute) and func.attr == "join":
                return "through str.join(...)"
        if isinstance(parent, ast.Starred):
            return "by star-unpacking"
        return None

    def _order_safe(self, ctx: ModuleContext, node: ast.AST) -> bool:
        """Is some enclosing call order-insensitive (sorted, sum, ...)?"""
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.Call) and isinstance(
                ancestor.func, ast.Name
            ):
                if ancestor.func.id in _ORDER_SAFE_CONSUMERS:
                    return True
            if isinstance(ancestor, ast.stmt):
                break
        return False

    # ------------------------------------------------------------------
    def _inferred_set_loops(
        self, ctx: ModuleContext
    ) -> list[LintViolation]:
        """WARNING-level pass: loops over names proven set-valued.

        Within each function, a name whose every assignment is a set
        expression is set-valued; a bare ``for`` over it leaks hash
        order.  Reported as warnings — the dataflow is deliberately
        shallow (no attributes, no cross-function flow).
        """
        out: list[LintViolation] = []
        for func in ast.walk(ctx.tree):
            if not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            assigned: dict[str, list[bool]] = {}
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigned.setdefault(target.id, []).append(
                                self._is_set_expr(node.value)
                            )
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name
                ):
                    # s |= {...} keeps a set a set; anything else may not.
                    assigned.setdefault(node.target.id, []).append(
                        isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor))
                    )
            set_named = {
                name
                for name, flags in assigned.items()
                if flags and all(flags)
            }
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.For)
                    and isinstance(node.iter, ast.Name)
                    and node.iter.id in set_named
                ):
                    out.append(
                        self.violation(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            f"loop over set-valued name "
                            f"{node.iter.id!r}: iteration order is "
                            "hash order; sort it or justify with a "
                            "pragma",
                            severity=Severity.WARNING,
                        )
                    )
        return out
