"""The multi-design batch job runner.

Fans a corpus of (design, flow) jobs across a process pool — the whole
bench suite, a directory of exported designs, a parameter sweep — with
a per-job level B deadline, retry-on-crash and structured
``dispatch.*`` counters.  Job payloads and results are small picklable
dataclasses/dicts; the heavy objects (designs, grids, flow results)
live and die inside the worker process.  Each job routes its design
serially; the parallelism is across jobs.

Used by the ``repro dispatch`` CLI (``--jobs N``, ``--timeout``,
``--json``).  The serve job queue shares only the success predicate,
:func:`summary_ok`.
"""

from __future__ import annotations

import time
from concurrent import futures
from dataclasses import dataclass, field

from repro import instrument
from repro.core.cancel import RouteCancelled, deadline
from repro.instrument.names import (
    DISPATCH_JOBS_COMPLETED,
    DISPATCH_JOBS_FAILED,
    DISPATCH_JOBS_RETRIED,
    DISPATCH_JOBS_SUBMITTED,
    DISPATCH_JOBS_TIMED_OUT,
    EVT_JOB_FINISHED,
    SPAN_DISPATCH_BATCH,
    SPAN_DISPATCH_JOB,
)

__all__ = [
    "BatchReport",
    "Job",
    "JobOutcome",
    "JobRunner",
    "run_suite_batch",
    "summary_ok",
]


@dataclass(frozen=True)
class Job:
    """One unit of batch work: route one design with one flow.

    ``design`` is a built-in suite name (``repro.bench_suite.SUITES``)
    or a path to a design JSON written by ``repro.io.save_design``.
    """

    design: str
    flow: str = "overcell"
    check: bool = False

    @property
    def name(self) -> str:
        return f"{self.design}/{self.flow}"


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: Job
    ok: bool
    attempts: int
    elapsed_s: float
    timed_out: bool = False
    error: str | None = None
    summary: dict | None = None

    def to_dict(self) -> dict:
        """JSON-safe snapshot.

        Every value is a JSON scalar/dict/list and ``elapsed_s`` is
        pre-rounded, so ``json.loads(json.dumps(d, sort_keys=True))``
        equals ``d`` exactly.
        """
        return {
            "design": self.job.design,
            "flow": self.job.flow,
            "check": self.job.check,
            "ok": self.ok,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 6),
            "timed_out": self.timed_out,
            "error": self.error,
            "summary": self.summary,
        }


@dataclass
class BatchReport:
    """Aggregate outcome of one batch run."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1
    mode: str = "serial"

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.completed

    def to_dict(self) -> dict:
        """JSON-safe snapshot (the ``repro dispatch --json`` document)."""
        return {
            "format": "repro-dispatch-batch",
            "ok": self.ok,
            "workers": self.workers,
            "mode": self.mode,
            "wall_s": round(self.wall_s, 6),
            "jobs": [o.to_dict() for o in self.outcomes],
        }

    def render(self) -> str:
        lines = [
            f"dispatch batch: {self.completed}/{len(self.outcomes)} jobs ok, "
            f"{self.workers} worker(s) [{self.mode}], wall {self.wall_s:.2f}s"
        ]
        for o in self.outcomes:
            if o.ok and o.summary:
                status = (
                    f"ok  completion={o.summary.get('completion', 0.0):.1%} "
                    f"wl={o.summary.get('wire_length', 0):,}"
                )
                if "check_clean" in o.summary:
                    status += (
                        " check=CLEAN"
                        if o.summary["check_clean"]
                        else f" check={o.summary.get('check_violations', '?')} violation(s)"
                    )
            elif o.timed_out:
                status = "TIMED OUT"
            else:
                status = f"FAILED ({o.error or 'unknown error'})"
            lines.append(
                f"  {o.job.name:<24} {status}  "
                f"[{o.elapsed_s:.2f}s, {o.attempts} attempt(s)]"
            )
        return "\n".join(lines)


def _execute_job(job: Job, timeout_s: float | None) -> dict:
    """Worker-side job body: load, route, summarise (picklably).

    The flow runs under a :func:`~repro.core.cancel.deadline` armed
    here, in the worker, so ``timeout_s`` counts from this job's own
    start in every mode.  Imports run inside the function so the
    parent's submit path stays cheap and the worker process pays its
    own import cost exactly once (fork start methods inherit the
    parent's modules anyway).
    """
    start = time.perf_counter()
    from repro.bench_suite import SUITES
    from repro.flow import FLOWS

    if job.design in SUITES:
        design = SUITES[job.design]()
    else:
        from repro.io import load_design

        design = load_design(job.design)
    with deadline(timeout_s):
        result = FLOWS[job.flow](design)
    summary: dict = {
        "design": result.design,
        "flow": result.flow,
        "completion": result.completion,
        "wire_length": result.wire_length,
        "via_count": result.via_count,
        "layout_area": result.layout_area,
        "flow_elapsed_s": round(time.perf_counter() - start, 6),
    }
    if job.check:
        from repro.check import check_flow

        report = check_flow(result)
        summary["check_clean"] = not report.violations
        summary["check_violations"] = len(report.violations)
    return summary


def summary_ok(summary: dict, check: bool) -> bool:
    """Did a finished job succeed?  Shared with the serve job queue.

    Routing must be complete and, for a checked job, CLEAN.
    """
    if summary.get("completion", 0.0) < 1.0:
        return False
    return not check or bool(summary.get("check_clean", False))


class JobRunner:
    """Work-queue executor for :class:`Job` batches.

    One worker runs the jobs in-line (mode ``"serial"``); more run on a
    process pool, or on threads where none can start (``"thread"``).
    ``timeout_s`` is each job's level B deadline: the worker arms it
    when the job starts (:func:`_execute_job`), so every mode honours
    it, and a job past it stops at its next checkpoint and is recorded
    as timed out, never retried.  A job that raises or dies with its
    worker process is retried up to ``retries`` times; the pool is
    rebuilt between rounds, so a retry always lands on a fresh
    executor.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        timeout_s: float | None = None,
        retries: int = 1,
    ) -> None:
        self.workers = max(1, workers)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)

    # ------------------------------------------------------------------
    def run(self, jobs: list[Job]) -> BatchReport:
        start = time.perf_counter()
        with instrument.span(SPAN_DISPATCH_BATCH):
            instrument.active().declare(
                DISPATCH_JOBS_COMPLETED,
                DISPATCH_JOBS_FAILED,
                DISPATCH_JOBS_RETRIED,
                DISPATCH_JOBS_SUBMITTED,
                DISPATCH_JOBS_TIMED_OUT,
            )
            if self.workers == 1:
                outcomes = self._run_serial(jobs)
                mode = "serial"
            else:
                outcomes, mode = self._run_pool(jobs)
        report = BatchReport(
            outcomes=outcomes,
            wall_s=time.perf_counter() - start,
            workers=self.workers,
            mode=mode,
        )
        instrument.count(DISPATCH_JOBS_COMPLETED, report.completed)
        instrument.count(DISPATCH_JOBS_FAILED, report.failed)
        return report

    def _settle(
        self, job: Job, attempts: int, start: float, result: dict | Exception
    ) -> JobOutcome | None:
        """One attempt's outcome, or ``None`` when the job is retried.

        ``result`` is the job's summary or the exception it raised: a
        timeout (:class:`RouteCancelled`) is final, a job exception or a
        worker crash retries while ``retries`` allow.
        """
        fields: dict
        if isinstance(result, RouteCancelled):
            instrument.count(DISPATCH_JOBS_TIMED_OUT)
            error = f"timed out after {self.timeout_s}s"
            fields = {"ok": False, "timed_out": True, "error": error}
        elif isinstance(result, Exception):
            if attempts <= self.retries:
                instrument.count(DISPATCH_JOBS_RETRIED)
                return None
            error = f"{type(result).__name__}: {result}"
            fields = {"ok": False, "error": error}
        else:
            fields = {"ok": summary_ok(result, job.check), "summary": result}
        outcome = JobOutcome(
            job=job,
            attempts=attempts,
            elapsed_s=time.perf_counter() - start,
            **fields,
        )
        instrument.event(EVT_JOB_FINISHED, job=job.name, ok=outcome.ok)
        return outcome

    # ------------------------------------------------------------------
    def _run_serial(self, jobs: list[Job]) -> list[JobOutcome]:
        outcomes = []
        for job in jobs:
            instrument.count(DISPATCH_JOBS_SUBMITTED)
            outcomes.append(self._attempt_serial(job))
        return outcomes

    def _attempt_serial(self, job: Job) -> JobOutcome:
        attempts = 0
        start = time.perf_counter()
        while True:
            attempts += 1
            result: dict | Exception
            try:
                with instrument.span(SPAN_DISPATCH_JOB):
                    result = _execute_job(job, self.timeout_s)
            except Exception as exc:
                result = exc
            outcome = self._settle(job, attempts, start, result)
            if outcome is not None:
                return outcome

    # ------------------------------------------------------------------
    def _new_executor(self) -> tuple[futures.Executor, str]:
        try:
            return (
                futures.ProcessPoolExecutor(max_workers=self.workers),
                "process",
            )
        except (OSError, NotImplementedError, ValueError, ImportError):
            # NotImplementedError: no working named semaphores.
            pass
        return futures.ThreadPoolExecutor(max_workers=self.workers), "thread"

    def _run_pool(self, jobs: list[Job]) -> tuple[list[JobOutcome], str]:
        outcomes: dict[int, JobOutcome] = {}
        attempts = dict.fromkeys(range(len(jobs)), 0)
        start = time.perf_counter()
        pending = list(range(len(jobs)))
        mode = "process"
        while pending:
            executor, mode = self._new_executor()
            with executor:
                submitted = {
                    i: executor.submit(_execute_job, jobs[i], self.timeout_s)
                    for i in pending
                }
                instrument.count(DISPATCH_JOBS_SUBMITTED, len(pending))
                pending = []
                for i, fut in submitted.items():
                    attempts[i] += 1
                    result: dict | Exception
                    try:
                        result = fut.result()
                    except Exception as exc:
                        # A timeout, a job exception or a worker crash
                        # (BrokenExecutor); the last two retry on a
                        # fresh pool.
                        result = exc
                    outcome = self._settle(jobs[i], attempts[i], start, result)
                    if outcome is None:
                        pending.append(i)
                    else:
                        outcomes[i] = outcome
        return [outcomes[i] for i in range(len(jobs))], mode


def run_suite_batch(
    suites: list[str],
    flows: list[str],
    *,
    workers: int = 2,
    timeout_s: float | None = None,
    retries: int = 1,
    check: bool = False,
) -> BatchReport:
    """Route every ``suite x flow`` combination as one batch."""
    jobs = [
        Job(design=suite, flow=flow, check=check)
        for suite in suites
        for flow in flows
    ]
    runner = JobRunner(workers, timeout_s=timeout_s, retries=retries)
    return runner.run(jobs)
