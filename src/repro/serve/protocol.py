"""The serve wire protocol: job specifications and their execution.

A :class:`JobSpec` is everything a client sends to request a routing
run: the design (a built-in suite name or an inline ``repro-design``
document), the flow, an optional technology document, the routing
knobs that change the answer (``planes``, ``ordering_policy``,
``objective``, the iterate knobs) and ``check``.  Specs validate
strictly on ingest so a malformed request — including one carrying a
key the protocol does not define — fails at the HTTP boundary, not
inside a worker.

Every spec has a *canonical digest* — :func:`repro.io.canonical_digest`
over its canonical document — which keys the server's result cache.
Every spec field reaches it; ``check`` does because it changes the
payload (the attached verification report).

:func:`execute_spec` is the worker-side body: build ``FlowParams``,
run the flow on the calling thread, and flatten the outcome into a
JSON-safe payload whose top-level keys (``completion``,
``check_clean``) feed the success predicate the batch runner shares
(:func:`repro.dispatch.jobs.summary_ok`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.io import canonical_digest

PROTOCOL_VERSION = 1

_SPEC_KEYS = frozenset(
    {
        "design",
        "flow",
        "technology",
        "planes",
        "check",
        "iterate",
        "max_iterations",
        "ordering_policy",
        "objective",
    }
)

# ----------------------------------------------------------------------
# Digest classification. Every FlowParams field appears in exactly one
# of the three literals below; the ``digest.fields`` lint rule
# cross-checks them against FlowParams and JobSpec.canonical() so a
# new routing knob cannot be added without deciding — in writing —
# whether it keys the result cache.
# ----------------------------------------------------------------------

#: FlowParams fields that reach the canonical digest, mapped to the
#: key ``JobSpec.canonical()`` carries them under.
DIGESTED_FIELDS = {
    "technology": "technology",
    "planes": "planes",
    "checked": "check",
    # The iterative driver changes the routed geometry (rip-up and
    # re-route under history costs — docs/ITERATION.md), so every
    # iterate knob keys the cache.
    "iterate": "iterate",
    "max_iterations": "max_iterations",
    # The net order changes the routed geometry, one-pass or iterated.
    "ordering_policy": "ordering_policy",
    # The routing objective changes plane assignment and corner
    # pricing, hence the routed geometry itself.
    "objective": "objective",
}

#: Bit-identical-result knobs: changing one would change *how* the
#: answer is produced, never the answer, so it must not fragment the
#: cache.  There are none today.
DIGEST_EXCLUDED: frozenset[str] = frozenset()

#: FlowParams fields the wire protocol does not expose: every request
#: gets the server-default value, so within one server's cache they
#: cannot vary between entries.
SERVER_DEFAULTED = frozenset(
    {
        "partition",
        "length_threshold",
        "levelb",
        "obstacles",
    }
)


class SpecError(ValueError):
    """A client request that fails validation (HTTP 400)."""


def _is_int(value: Any) -> bool:
    """A JSON integer: ``true`` and ``false`` are Python ints, not these."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class JobSpec:
    """One validated routing request.

    ``design`` is a built-in suite name (``repro.bench_suite.SUITES``)
    or an inline ``repro-design`` document; ``technology`` an optional
    ``repro-technology`` document.  Inline documents are kept as plain
    dicts — the queue builds them only for a job it queues, so a spec
    stays cheap to hold in queues and caches.
    """

    design: str | dict[str, Any]
    flow: str = "overcell"
    technology: dict[str, Any] | None = None
    planes: int = 1
    check: bool = False
    iterate: bool = False
    max_iterations: int = 8
    ordering_policy: str = "longest-first"
    objective: str = "wire"

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        """Validate and build a spec from a client JSON document."""
        if not isinstance(data, dict):
            raise SpecError("job spec must be a JSON object")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise SpecError(f"unknown job spec keys: {sorted(unknown)}")
        if "design" not in data:
            raise SpecError("job spec requires a 'design'")
        design = data["design"]
        if isinstance(design, str):
            from repro.bench_suite import SUITES

            if design not in SUITES:
                raise SpecError(
                    f"unknown suite {design!r} (available: {sorted(SUITES)})"
                )
        elif isinstance(design, dict):
            if design.get("format") != "repro-design":
                raise SpecError(
                    "inline design must be a 'repro-design' document"
                )
        else:
            raise SpecError("'design' must be a suite name or design document")
        flow = data.get("flow", "overcell")
        if not isinstance(flow, str):
            raise SpecError("'flow' must be a string")
        from repro.flow import FLOWS

        if flow not in FLOWS:
            raise SpecError(
                f"unknown flow {flow!r} (available: {sorted(FLOWS)})"
            )
        technology = data.get("technology")
        if technology is not None:
            if not isinstance(technology, dict):
                raise SpecError(
                    "'technology' must be a 'repro-technology' or "
                    "stackup document"
                )
            # Canonicalize at the boundary: ingest whatever format the
            # client sent and keep the canonical repro-technology dict,
            # so a stackup document and its repro-technology equivalent
            # (at any unit scale quantizing identically) produce the
            # same spec — and share one cache digest.
            from repro.io import technology_to_dict
            from repro.technology import technology_from_any

            try:
                technology = technology_to_dict(technology_from_any(technology))
            except (KeyError, TypeError, ValueError) as exc:
                raise SpecError(f"invalid technology document: {exc}")
        planes = data.get("planes", 1)
        if not _is_int(planes) or planes < 1:
            raise SpecError("'planes' must be an integer >= 1")
        check = data.get("check", False)
        if not isinstance(check, bool):
            raise SpecError("'check' must be a boolean")
        iterate = data.get("iterate", False)
        if not isinstance(iterate, bool):
            raise SpecError("'iterate' must be a boolean")
        max_iterations = data.get("max_iterations", 8)
        if not _is_int(max_iterations) or max_iterations < 0:
            raise SpecError("'max_iterations' must be an integer >= 0")
        ordering_policy = data.get("ordering_policy", "longest-first")
        if not isinstance(ordering_policy, str):
            raise SpecError("'ordering_policy' must be a string")
        from repro.core.ordering import POLICIES

        if ordering_policy not in POLICIES:
            raise SpecError(
                f"unknown ordering policy {ordering_policy!r} "
                f"(available: {sorted(POLICIES)})"
            )
        objective = data.get("objective", "wire")
        if objective not in ("wire", "vias"):
            raise SpecError("'objective' must be 'wire' or 'vias'")
        return cls(
            design=design,
            flow=flow,
            technology=technology,
            planes=planes,
            check=check,
            iterate=iterate,
            max_iterations=max_iterations,
            ordering_policy=ordering_policy,
            objective=objective,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "design": self.design,
            "flow": self.flow,
            "technology": self.technology,
            "planes": self.planes,
            "check": self.check,
            "iterate": self.iterate,
            "max_iterations": self.max_iterations,
            "ordering_policy": self.ordering_policy,
            "objective": self.objective,
        }

    # ------------------------------------------------------------------
    def canonical(self) -> dict[str, Any]:
        """The digest-relevant content."""
        return {
            "kind": "job",
            "version": PROTOCOL_VERSION,
            "design": self.design,
            "flow": self.flow,
            "technology": self.technology,
            "planes": self.planes,
            "check": self.check,
            "iterate": self.iterate,
            "max_iterations": self.max_iterations,
            "ordering_policy": self.ordering_policy,
            "objective": self.objective,
        }

    def digest(self) -> str:
        """Content digest keying the result cache.

        Canonical JSON has no NaN or infinity, so a spec carrying one
        (an inline design's pin offset, say) raises :class:`SpecError`.
        """
        try:
            return canonical_digest(self.canonical())
        except ValueError as exc:
            raise SpecError(f"job spec numbers must be finite: {exc}") from None

    @property
    def design_name(self) -> str:
        if isinstance(self.design, str):
            return self.design
        return str(self.design.get("name", "inline"))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def build_design(spec: JobSpec) -> Any:
    """Materialise the spec's design (suite factory or inline doc);
    an inline document that does not build raises :class:`SpecError`."""
    if isinstance(spec.design, str):
        from repro.bench_suite import SUITES

        return SUITES[spec.design]()
    from repro.io import design_from_dict

    try:
        return design_from_dict(spec.design)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"invalid design document: {type(exc).__name__}: {exc}")


def build_params(spec: JobSpec) -> Any:
    """The :class:`~repro.flow.FlowParams` a spec translates to."""
    from repro.flow import FlowParams
    from repro.io import technology_from_dict

    kwargs: dict[str, Any] = {
        "planes": spec.planes,
        "checked": spec.check,
        "iterate": spec.iterate,
        "max_iterations": spec.max_iterations,
        "ordering_policy": spec.ordering_policy,
        "objective": spec.objective,
    }
    if spec.technology is not None:
        kwargs["technology"] = technology_from_dict(spec.technology)
    return FlowParams(**kwargs)


def execute_spec(spec: JobSpec, design: Any) -> dict[str, Any]:
    """Route one spec over ``design`` (its :func:`build_design`).

    A :func:`repro.core.cancel.deadline` the caller armed stops level B
    with ``RouteCancelled``.  The top level carries the summary metrics
    :func:`repro.dispatch.jobs.summary_ok` reads (``completion``,
    ``check_clean``); the full :func:`~repro.io.flow_result_to_dict`
    export rides under ``"result"`` for the ``/jobs/<id>/result``
    endpoint.
    """
    from repro import instrument
    from repro.flow import FLOWS
    from repro.instrument.names import SPAN_SERVE_JOB
    from repro.io import flow_result_to_dict

    params = build_params(spec)
    with instrument.span(SPAN_SERVE_JOB):
        result = FLOWS[spec.flow](design, params)
    payload: dict[str, Any] = {
        "digest": spec.digest(),
        "design": result.design,
        "flow": result.flow,
        "completion": result.completion,
        "wire_length": result.wire_length,
        "via_count": result.via_count,
        "layout_area": result.layout_area,
    }
    if spec.check and result.check_report is not None:
        payload["check_clean"] = not result.check_report.violations
        payload["check_violations"] = len(result.check_report.violations)
    payload["result"] = flow_result_to_dict(result)
    return payload

