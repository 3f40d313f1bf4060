"""JobManager: admission, execution, retry/resume, watchdogs, recovery.

Tests that need the scheduler run real job subprocesses, forked from a
preloaded fork server, against the shared CSV-stable dataset and compare
results against the inline differential oracle
(:func:`repro.service.runner.run_job_inline`).
Admission-control tests deliberately *don't* start the scheduler, which
makes queue/budget arithmetic exact instead of racy.

Fault seeds are chosen so the deterministic draw table is known: with
``FaultPlan(crash_rate=0.5, seed=4)`` (and likewise ``timeout_rate``),
job seq 1 draws a fault on attempt 0 and runs clean on attempt 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience.faults import FaultPlan
from repro.service import manager as manager_module
from repro.service import runner
from repro.service.jobs import (
    QUEUED,
    RUNNING,
    SUCCEEDED,
    AdmissionError,
    JobSpec,
    JobValidationError,
)
from repro.service.manager import JobManager
from tests.service.conftest import job_payload, write_dataset_csv

#: Generous ceiling for one job: runners fork from a preloaded fork
#: server, so only a loaded host comes near it.
JOB_TIMEOUT = 120.0

#: Fast supervision policy for tests.
FAST = dict(retry_backoff_base=0.01, retry_backoff_cap=0.05)


def make_spec(tmp_path, **overrides) -> JobSpec:
    return JobSpec.from_json(job_payload(write_dataset_csv(tmp_path), **overrides))


def finished(manager: JobManager, record_id: str):
    assert manager.wait_idle(JOB_TIMEOUT), "manager never went idle"
    return manager.get(record_id)


def assert_bit_identical(manager: JobManager, record) -> None:
    result = manager.result(record.id)
    assert result is not None
    assert runner.comparable(result) == runner.comparable(
        runner.run_job_inline(record.spec)
    )


class TestExecution:
    def test_submit_runs_and_matches_inline_oracle(self, tmp_path):
        manager = JobManager(tmp_path / "svc", **FAST)
        manager.start()
        try:
            record = manager.submit(make_spec(tmp_path))
            record = finished(manager, record.id)
            assert record.state == "succeeded"
            assert record.attempt == 1 and not record.resumed
            assert_bit_identical(manager, record)
            # Terminal jobs keep their result but no resume machinery.
            job_dir = manager.job_dir(record.id)
            assert (job_dir / runner.RESULT_FILE).exists()
            assert not (job_dir / runner.CHECKPOINT_FILE).exists()
            counters = manager.counters.as_dict()
            assert counters["service.jobs_submitted"] == 1
            assert counters["service.jobs_succeeded"] == 1
            metrics = manager.metrics.as_dict()
            assert "latency.job_total_seconds" in metrics
        finally:
            manager.drain()

    def test_crash_injection_resumes_then_succeeds(self, tmp_path):
        plan = FaultPlan(crash_rate=0.5, seed=4)
        assert plan.draw(1, 0) == "crash" and plan.draw(1, 1) is None
        manager = JobManager(tmp_path / "svc", fault_plan=plan, **FAST)
        manager.start()
        try:
            record = manager.submit(make_spec(tmp_path))
            record = finished(manager, record.id)
            assert record.state == "succeeded"
            assert record.resumed and record.attempt == 2
            assert_bit_identical(manager, record)
            counters = manager.counters.as_dict()
            assert counters["service.injected.crash"] == 1
            assert counters["service.retries"] == 1
            assert counters["service.jobs_resumed_succeeded"] == 1
        finally:
            manager.drain()

    def test_hang_injection_is_killed_by_watchdog_then_resumes(self, tmp_path):
        plan = FaultPlan(timeout_rate=0.5, seed=4)
        assert plan.draw(1, 0) == "timeout" and plan.draw(1, 1) is None
        manager = JobManager(
            tmp_path / "svc",
            fault_plan=plan,
            heartbeat_timeout=1.0,
            **FAST,
        )
        manager.start()
        try:
            record = manager.submit(make_spec(tmp_path))
            record = finished(manager, record.id)
            assert record.state == "succeeded"
            assert record.resumed and record.attempt == 2
            assert_bit_identical(manager, record)
            counters = manager.counters.as_dict()
            assert counters["service.injected.hang"] == 1
            assert counters["service.watchdog_kills"] == 1
        finally:
            manager.drain()

    def test_constant_crashes_fail_with_recorded_cause(self, tmp_path):
        plan = FaultPlan(crash_rate=1.0, seed=1)
        manager = JobManager(
            tmp_path / "svc", fault_plan=plan, max_attempts=2, **FAST
        )
        manager.start()
        try:
            record = manager.submit(make_spec(tmp_path))
            record = finished(manager, record.id)
            assert record.state == "failed"
            assert "crashed" in record.cause and "2 attempt" in record.cause
            assert manager.counters.as_dict()["service.jobs_failed"] == 1
        finally:
            manager.drain()

    def test_runner_that_fails_to_start_is_a_crashed_attempt(
        self, tmp_path, monkeypatch
    ):
        manager = JobManager(tmp_path / "svc", max_attempts=2, **FAST)

        class Unstartable(manager._context.Process):
            def start(self):
                raise OSError("AF_UNIX path too long")

        monkeypatch.setattr(manager._context, "Process", Unstartable)
        manager.start()
        try:
            record = finished(manager, manager.submit(make_spec(tmp_path)).id)
            assert record.state == "failed"
            assert record.attempt == 2
            assert record.cause == (
                "runner failed to start: AF_UNIX path too long after 2 attempt(s)"
            )
            counters = manager.counters.as_dict()
            assert counters["service.retries"] == 1
            assert "service.scheduler_errors" not in counters
        finally:
            manager.drain()

    def test_deadline_exceeded_is_terminal(self, tmp_path):
        # Every attempt hangs after its first checkpoint, and the watchdog
        # is held off, so only the deadline can end the job.
        manager = JobManager(
            tmp_path / "svc",
            fault_plan=FaultPlan(timeout_rate=1.0, seed=1),
            heartbeat_timeout=60.0,
            **FAST,
        )
        manager.start()
        try:
            record = manager.submit(
                make_spec(tmp_path, deadline_seconds=0.5)
            )
            record = finished(manager, record.id)
            assert record.state == "failed"
            assert "deadline exceeded" in record.cause
            assert manager.counters.as_dict()["service.deadline_kills"] == 1
        finally:
            manager.drain()

    def test_deterministic_algorithm_error_does_not_retry(self, tmp_path):
        # A range hierarchy over string values raises inside the child:
        # deterministic, so retrying would fail identically.
        manager = JobManager(tmp_path / "svc", **FAST)
        manager.start()
        try:
            record = manager.submit(
                make_spec(
                    tmp_path,
                    hierarchies={
                        "age": {"type": "range", "widths": [5]},
                        "sex": {"type": "suppression"},
                    },
                )
            )
            record = finished(manager, record.id)
            assert record.state == "failed"
            assert record.attempt == 1
            assert record.cause  # the child's exception, recorded
            assert manager.counters.as_dict().get("service.retries", 0) == 0
        finally:
            manager.drain()


def reaches(manager: JobManager, job_id: str, state: str, timeout: float) -> bool:
    """Poll the job's state (not the scheduler's cadence) until ``state``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if manager.get(job_id).state == state:
            return True
        time.sleep(0.01)
    return False


class TestWakeUps:
    """With a 10 s poll, a job that waited for ticks would take 20 s or
    more: only the submit, cancel, drain and runner-exit wake-ups make
    these finish within 5 s."""

    @pytest.fixture(autouse=True)
    def slow_poll(self, monkeypatch):
        monkeypatch.setattr(manager_module, "POLL_INTERVAL", 10.0)

    def test_job_launches_on_submit_and_is_collected_on_exit(
        self, tmp_path, monkeypatch
    ):
        manager = JobManager(tmp_path / "svc", **FAST)
        ticks = []
        tick = manager._tick
        monkeypatch.setattr(manager, "_tick", lambda: ticks.append(1) or tick())
        manager.start()
        try:
            record = manager.submit(make_spec(tmp_path))
            succeeded = reaches(manager, record.id, SUCCEEDED, 5.0)
            # The collected runner left the wait set: no tick without a wake.
            settled = len(ticks)
            time.sleep(0.3)
            idle_ticks = len(ticks) - settled
        finally:
            began = time.monotonic()
            manager.drain()
            drain_seconds = time.monotonic() - began
        assert succeeded
        assert idle_ticks <= 1
        assert drain_seconds < 5.0
        assert_bit_identical(manager, manager.get(record.id))

    def test_cancelling_a_running_job_starts_the_next_at_once(self, tmp_path):
        # Every attempt hangs after its first checkpoint, with the
        # watchdog held off, so the first job runs until it is cancelled.
        manager = JobManager(
            tmp_path / "svc",
            max_running=1,
            fault_plan=FaultPlan(timeout_rate=1.0, seed=1),
            heartbeat_timeout=60.0,
            **FAST,
        )
        manager.start()
        try:
            first = manager.submit(make_spec(tmp_path))
            second = manager.submit(make_spec(tmp_path))
            assert reaches(manager, first.id, RUNNING, 5.0)
            assert manager.get(second.id).state == QUEUED
            manager.cancel(first.id)
            assert reaches(manager, second.id, RUNNING, 5.0)
            manager.cancel(second.id)
        finally:
            manager.drain()


#: Imports the fork server's preload, runs the job spec in argv[1]
#: inline, and prints the ``repro`` modules the run imported on top.
PRELOAD_PROBE = """
import json
import sys
from pathlib import Path

from repro.service.manager import RUNNER_PRELOAD

for name in RUNNER_PRELOAD:
    __import__(name)
from repro.service import runner
from repro.service.jobs import JobSpec

spec = JobSpec.from_json(json.loads(sys.argv[1]))
before = set(sys.modules)
runner.run_job_inline(spec)
from repro.service.connectors import DatasetStore, load_problem

store = DatasetStore(Path(sys.argv[2]))
outcomes = []
for _ in range(2):
    load_problem(spec, store)
    outcomes.append(store.outcome)
print(json.dumps([outcomes, sorted(
    name for name in set(sys.modules) - before if name.split(".")[0] == "repro"
)]))
"""


def test_preload_covers_every_module_a_job_imports(tmp_path):
    """A runner forked from the fork server imports nothing at job time,
    whether its dataset store misses or hits."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    payload = job_payload(write_dataset_csv(tmp_path))
    store = tmp_path / runner.DATASET_DIR
    done = subprocess.run(
        [sys.executable, "-c", PRELOAD_PROBE, json.dumps(payload), str(store)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [["miss", "hit"], []]


class TestAdmissionControl:
    """No scheduler: the queue never drains, so arithmetic is exact."""

    def test_queue_bound_rejects_with_reason(self, tmp_path):
        manager = JobManager(tmp_path / "svc", max_queue=2, tenant_budget=10)
        spec = make_spec(tmp_path)
        manager.submit(spec)
        manager.submit(spec)
        with pytest.raises(AdmissionError) as caught:
            manager.submit(spec)
        assert caught.value.reason == "queue_full"
        counters = manager.counters.as_dict()
        assert counters["service.rejected.queue_full"] == 1
        assert counters["service.jobs_submitted"] == 2
        manager.store.close()

    def test_tenant_budget_is_per_tenant(self, tmp_path):
        manager = JobManager(tmp_path / "svc", max_queue=10, tenant_budget=1)
        manager.submit(make_spec(tmp_path, tenant="alpha"))
        with pytest.raises(AdmissionError) as caught:
            manager.submit(make_spec(tmp_path, tenant="alpha"))
        assert caught.value.reason == "tenant_budget"
        # Another tenant is unaffected by alpha's exhausted budget.
        manager.submit(make_spec(tmp_path, tenant="beta"))
        assert manager.counters.as_dict()["service.rejected.tenant_budget"] == 1
        manager.store.close()

    def test_draining_rejects_everything(self, tmp_path):
        manager = JobManager(tmp_path / "svc")
        manager.drain()
        with pytest.raises(AdmissionError) as caught:
            manager.submit(make_spec(tmp_path))
        assert caught.value.reason == "draining"

    def test_malformed_spec_rejected_before_persistence(self, tmp_path):
        manager = JobManager(tmp_path / "svc")
        with pytest.raises(JobValidationError):
            manager.submit(JobSpec(dataset="builtin:adults", k=0))
        assert manager.store.load().records == {}
        manager.store.close()

    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(tmp_path / "svc")
        record = manager.submit(make_spec(tmp_path))
        cancelled = manager.cancel(record.id)
        assert cancelled.state == "cancelled" and cancelled.terminal
        assert manager.idle()
        assert manager.counters.as_dict()["service.jobs_cancelled"] == 1
        # Cancelling a terminal job is a no-op returning the record.
        assert manager.cancel(record.id).state == "cancelled"
        manager.store.close()


class TestRecovery:
    def test_interrupted_jobs_recover_and_complete(self, tmp_path):
        # Session one persists a job but dies before running it (no
        # scheduler, no drain — the WAL is all that survives).
        first = JobManager(tmp_path / "svc")
        submitted = first.submit(make_spec(tmp_path))
        first.store.close()

        second = JobManager(tmp_path / "svc", **FAST)
        second.start()
        try:
            record = finished(second, submitted.id)
            assert record.state == "succeeded"
            assert record.recovered
            assert_bit_identical(second, record)
            assert second.counters.as_dict()["service.jobs_recovered"] == 1
            assert second.startup_sweep is not None
        finally:
            second.drain()

    def test_recovery_skips_terminal_jobs(self, tmp_path):
        first = JobManager(tmp_path / "svc")
        record = first.submit(make_spec(tmp_path))
        first.cancel(record.id)
        first.store.close()

        second = JobManager(tmp_path / "svc")
        second.recover()
        assert second.get(record.id).state == "cancelled"
        assert second.idle()
        assert "service.jobs_recovered" not in second.counters.as_dict()
        second.store.close()

    def test_corrupt_wal_lines_surface_in_counters(self, tmp_path):
        first = JobManager(tmp_path / "svc")
        record = first.submit(make_spec(tmp_path))
        first.cancel(record.id)
        first.store.close()
        wal = tmp_path / "svc" / "jobs.wal"
        lines = wal.read_text().splitlines()
        lines.insert(1, "%%% damaged %%%")
        wal.write_text("\n".join(lines) + "\n")

        second = JobManager(tmp_path / "svc")
        second.recover()
        assert second.counters.as_dict()["service.wal_corrupt_lines"] == 1
        assert second.get(record.id).state == "cancelled"
        second.store.close()

    def test_drain_requeues_unfinished_work_for_next_start(self, tmp_path):
        manager = JobManager(tmp_path / "svc")
        record = manager.submit(make_spec(tmp_path))
        manager.drain()  # never started: job still queued, now persisted
        replay = manager.store.load()
        assert replay.records[record.id]["state"] == "queued"
        # And the WAL was compacted into the snapshot on the way out.
        assert manager.store.wal_line_count() == 0
