"""Unit tests for the batch job runner (repro.dispatch) and the
``repro dispatch`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.core.cancel import RouteCancelled
from repro.dispatch import Job, JobOutcome, JobRunner
from repro.dispatch import jobs as jobs_mod


def _refuse_process_pool(monkeypatch, error):
    def refuse(*args, **kwargs):
        raise error("no process pool on this platform")

    monkeypatch.setattr(jobs_mod.futures, "ProcessPoolExecutor", refuse)


@pytest.fixture()
def no_process_pool(monkeypatch):
    """A platform where a process pool cannot start: CPython raises
    NotImplementedError where named semaphores are missing.  The
    runner's pool falls back to threads, which share this process's
    memory."""
    _refuse_process_pool(monkeypatch, NotImplementedError)


# ----------------------------------------------------------------------
# Batch jobs
# ----------------------------------------------------------------------
class TestJobRunner:
    def test_serial_batch_runs_flow(self):
        runner = JobRunner(1)
        report = runner.run([Job(design="__missing__", flow="overcell")])
        assert report.mode == "serial"
        assert not report.ok  # unknown design fails, is reported
        assert report.outcomes[0].error

    def test_retry_then_success(self, monkeypatch, no_process_pool):
        calls = {"n": 0}

        def flaky(job, timeout_s):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return {"completion": 1.0}

        monkeypatch.setattr(jobs_mod, "_execute_job", flaky)
        report = JobRunner(2, retries=1).run([Job(design="x")])
        assert report.mode == "thread"
        assert report.ok
        assert report.outcomes[0].attempts == 2

    def test_retries_exhausted(self, monkeypatch, no_process_pool):
        def always_fails(job, timeout_s):
            raise RuntimeError("boom")

        monkeypatch.setattr(jobs_mod, "_execute_job", always_fails)
        report = JobRunner(2, retries=1).run([Job(design="x")])
        assert report.mode == "thread"
        assert not report.ok
        assert report.outcomes[0].attempts == 2
        assert "boom" in report.outcomes[0].error

    def test_timeout_records_without_retry(self, monkeypatch, no_process_pool):
        self._assert_timeout_not_retried(monkeypatch, 2, "thread")

    def test_serial_timeout_records_without_retry(self, monkeypatch):
        self._assert_timeout_not_retried(monkeypatch, 1, "serial")

    @staticmethod
    def _assert_timeout_not_retried(monkeypatch, workers, mode):
        calls = {"n": 0}

        def cancelled(job, timeout_s):
            calls["n"] += 1
            raise RouteCancelled("deadline passed")

        monkeypatch.setattr(jobs_mod, "_execute_job", cancelled)
        report = JobRunner(workers, timeout_s=0.05, retries=3).run(
            [Job(design="x")]
        )
        assert report.mode == mode
        assert not report.ok
        assert report.outcomes[0].timed_out
        assert report.outcomes[0].attempts == 1
        assert report.outcomes[0].error == "timed out after 0.05s"
        assert calls["n"] == 1

    def test_report_shapes(self, monkeypatch):
        monkeypatch.setattr(
            jobs_mod, "_execute_job", lambda job, timeout_s: {"completion": 1.0}
        )
        report = JobRunner(1).run(
            [Job(design="a"), Job(design="b", flow="two-layer")]
        )
        doc = report.to_dict()
        assert doc["format"] == "repro-dispatch-batch"
        assert doc["ok"] and len(doc["jobs"]) == 2
        text = report.render()
        assert "a/overcell" in text and "b/two-layer" in text

    @pytest.mark.parametrize(
        "error",
        [OSError, NotImplementedError, ValueError, ImportError],
        ids=lambda error: error.__name__,
    )
    def test_pool_falls_back_to_threads(self, monkeypatch, error):
        _refuse_process_pool(monkeypatch, error)
        monkeypatch.setattr(
            jobs_mod, "_execute_job", lambda job, timeout_s: {"completion": 1.0}
        )
        report = JobRunner(2).run([Job(design="a"), Job(design="b")])
        assert report.mode == "thread" and report.workers == 2
        assert report.ok and report.completed == 2

    def test_empty_job_list(self):
        # An empty batch must be a clean no-op in-line and on a pool.
        for workers in (1, 2):
            report = JobRunner(workers).run([])
            assert report.ok
            assert report.completed == 0 and report.failed == 0
            assert report.outcomes == []
            doc = report.to_dict()
            assert doc["jobs"] == []
            assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_worker_crash_recovers_on_fresh_executor(
        self, tmp_path, monkeypatch
    ):
        import os

        monkeypatch.setattr(jobs_mod, "_execute_job", _crash_once_body)
        flag = tmp_path / "crashed-once"
        job = Job(design=f"{flag}:{os.getpid()}")
        report = JobRunner(2, retries=1).run([job])
        if report.mode != "process":  # pragma: no cover - thread fallback
            pytest.skip("no process pool available on this platform")
        assert report.ok
        assert report.outcomes[0].attempts == 2


class TestDeadline:
    """``timeout_s`` stops real routing, in-line and on a pool."""

    @pytest.mark.parametrize(
        "workers,mode", [(1, "serial"), (2, "thread"), (2, "process")]
    )
    def test_timeout_stops_ex3(self, workers, mode, request):
        if mode == "thread":
            request.getfixturevalue("no_process_pool")
        report = JobRunner(workers, timeout_s=0.2).run([Job(design="ex3")])
        if mode == "process" and report.mode == "thread":
            pytest.skip("no process pool available on this platform")
        assert report.mode == mode
        outcome = report.outcomes[0]
        assert outcome.timed_out and not outcome.ok
        assert outcome.attempts == 1
        assert outcome.error == "timed out after 0.2s"

    def test_job_inside_its_deadline_completes(self):
        report = JobRunner(1, timeout_s=60.0).run(
            [Job(design="ami33"), Job(design="ami33", flow="two-layer")]
        )
        assert report.ok
        assert not any(o.timed_out for o in report.outcomes)


class TestReportRoundTrip:
    """to_dict output survives sorted-key JSON unchanged."""

    def _sample_report(self):
        ok = JobOutcome(
            job=Job(design="a", flow="overcell", check=True),
            ok=True,
            attempts=1,
            elapsed_s=0.1234567,
            summary={"completion": 1.0, "wire_length": 42, "check_clean": True},
        )
        failed = JobOutcome(
            job=Job(design="b", flow="two-layer"),
            ok=False,
            attempts=3,
            elapsed_s=2.5,
            error="RuntimeError: boom",
        )
        timed_out = JobOutcome(
            job=Job(design="c"),
            ok=False,
            attempts=1,
            elapsed_s=5.0,
            timed_out=True,
            error="timed out after 5.0s",
        )
        return jobs_mod.BatchReport(
            outcomes=[ok, failed, timed_out],
            wall_s=7.654321987,
            workers=2,
            mode="thread",
        )

    def test_outcome_json_round_trip(self):
        for outcome in self._sample_report().outcomes:
            doc = outcome.to_dict()
            assert json.loads(json.dumps(doc, sort_keys=True)) == doc
            assert (doc["design"], doc["flow"], doc["check"]) == (
                outcome.job.design,
                outcome.job.flow,
                outcome.job.check,
            )

    def test_batch_json_round_trip(self):
        report = self._sample_report()
        doc = report.to_dict()
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc
        assert doc["format"] == "repro-dispatch-batch"
        assert (doc["ok"], doc["workers"], doc["mode"]) == (False, 2, "thread")
        assert doc["wall_s"] == 7.654322
        assert [j["ok"] for j in doc["jobs"]] == [True, False, False]

    def test_dict_ordering_does_not_change_payload(self):
        from repro.io import canonical_digest

        doc = self._sample_report().to_dict()
        reordered = {k: doc[k] for k in reversed(list(doc))}
        assert canonical_digest(doc) == canonical_digest(reordered)


def _crash_once_body(job, timeout_s):
    """Process-pool body that hard-kills its worker exactly once.

    The flag file and submitter pid are smuggled through ``job.design``
    (``<path>:<pid>``); the flag survives the dead process, so the
    retry on the rebuilt executor succeeds.  If the runner fell back
    to threads we would be running *inside* the submitter — raise
    instead of taking the whole test process down.
    """
    import os
    from pathlib import Path

    path, _, parent_pid = job.design.rpartition(":")
    flag = Path(path)
    if not flag.exists():
        flag.write_text("x")
        if os.getpid() == int(parent_pid):  # pragma: no cover - fallback
            raise RuntimeError("thread fallback: cannot simulate crash")
        os._exit(13)
    return {"completion": 1.0}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestIntegration:
    def test_cli_dispatch(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "batch.json"
        code = main(
            [
                "dispatch",
                "--suites",
                "ami33",
                "--flows",
                "two-layer",
                "--jobs",
                "1",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-dispatch-batch"
        assert doc["mode"] == "serial" and doc["workers"] == 1
        assert doc["jobs"][0]["design"] == "ami33"
        captured = capsys.readouterr().out
        assert "dispatch batch" in captured

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cli_rejects_non_positive_timeout(self, value, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["dispatch", "--suites", "ami33", "--timeout", value])
        assert excinfo.value.code == 2
        assert "positive number of seconds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "thread"],
            ["--mode", "process"],
            ["--serial"],
            ["--jobs", "0"],
            ["--retries", "-1"],
        ],
        ids=["mode-thread", "mode-process", "serial", "jobs-zero", "retries-negative"],
    )
    def test_parser_rejects(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["dispatch", "--suites", "ami33", *argv])
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err
