"""repro.dispatch - batch execution over the routing stack.

The batch job runner (:mod:`jobs`) fans a corpus of (design, flow) jobs
across a process pool with a per-job level B deadline and
retry-on-crash; it is the ``repro dispatch`` CLI (docs/PARALLELISM.md).
Level B routing inside each job is serial: the paper routes nets one at
a time, longest first.

The runner emits ``dispatch.*`` counters, spans and events through
:mod:`repro.instrument`.
"""

from __future__ import annotations

from repro.dispatch.jobs import (
    BatchReport,
    Job,
    JobOutcome,
    JobRunner,
    run_suite_batch,
)

__all__ = [
    "BatchReport",
    "Job",
    "JobOutcome",
    "JobRunner",
    "run_suite_batch",
]
