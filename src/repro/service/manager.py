"""The job manager: admission, scheduling, watchdogs, recovery, drain.

:class:`JobManager` owns the whole job lifecycle behind the HTTP layer.
It is deliberately *synchronous* — one scheduler thread, one lock — so the
asyncio server stays a thin protocol shim and every state transition has
exactly one writer.  The robustness contract it implements:

**Admission control** (:meth:`submit`) is bounded on purpose: a full
queue, an exhausted per-tenant budget, or a draining server raises
:class:`~repro.service.jobs.AdmissionError` (HTTP 429/503) instead of
growing memory without bound.  Rejection is explicit and counted
(``service.rejected.<reason>``), never silent.

**Write-ahead persistence**: every transition appends the *full* job
record to the fsync'd WAL (:mod:`repro.service.wal`) before its side
effects run, so a server crash at any instant loses at most the
transition that had not happened yet.  :meth:`recover` replays the store
at startup: running jobs (the server died mid-execution) and queued jobs
are re-queued with ``recovered=True`` and resume from their checkpoint.

**Watchdogs**: each running job's child touches a heartbeat file; a stale
mtime means a hung runner — the watchdog kills it and the attempt retries
with exponential backoff while budget remains.  A job past its deadline
is killed and failed terminally with ``deadline exceeded`` as its cause
(the deadline is a total-latency promise, so retrying would break it).

**Graceful drain** (:meth:`drain`): SIGTERM to every child, which
converts it to a checkpoint-backed ``drained`` result; drained jobs are
re-queued (they resume on the next start), the WAL is compacted, and the
store is closed.  A child that ignores SIGTERM past the grace period is
killed — its checkpoint from the last completed level still stands.

**Fault injection**: an optional seeded
:class:`~repro.resilience.FaultPlan` is consulted per (job seq, attempt);
``crash`` and ``timeout`` draws ship to the child as directives (an
injected hang silences the heartbeat so the *watchdog path* is what
recovers), applied only after the first checkpoint save so recovery
always exercises a true mid-flight resume.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import shutil
import threading
import time
from collections import deque
from contextlib import suppress
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Any

from repro.obs import CounterSet, JsonLinesSink, MetricSet, TraceContext, Tracer
from repro.obs.telemetry import (
    SloPolicy,
    TelemetrySampler,
    prometheus_exposition,
)
from repro.resilience.faults import FaultPlan
from repro.service import runner
from repro.service.connectors import ConnectorError, spill_memory_dataset
from repro.service.jobs import (
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    AdmissionError,
    JobRecord,
    JobSpec,
    job_id_for,
)
from repro.service.wal import COMPACT_THRESHOLD, JobStore

#: Longest the scheduler sleeps between ticks (seconds): the cadence of
#: the watchdog, deadline and retry-backoff checks.  A submit, a cancel,
#: a drain or a runner's exit wakes it sooner.
POLL_INTERVAL = 0.05

#: Grace period a drained child gets to reach its checkpoint and exit.
DRAIN_GRACE_SECONDS = 10.0

#: A heartbeat this stale marks the runner as hung (watchdog kills it).
DEFAULT_HEARTBEAT_TIMEOUT = 5.0

#: Grace before the *first* heartbeat, counted once ``start()`` returns
#: (the fork server's one-time preload runs inside the first ``start()``).
#: A preloaded runner beats within milliseconds; the grace covers a
#: stalled host, or a fork server another caller started without it.
STARTUP_GRACE_SECONDS = 30.0

#: What the fork server imports once, so that every runner forked from
#: it starts with the engine loaded: the runner, which pulls in
#: ``repro``, ``repro.core`` and numpy.  A serial job imports nothing
#: beyond it.
RUNNER_PRELOAD = ("repro.service.runner",)

#: Injected fault kinds the job layer understands (drawn from FaultPlan;
#: ``timeout`` maps to a hang so the watchdog path is what recovers).
_DIRECTIVE_FOR_KIND = {"crash": "crash", "timeout": "hang"}


class _Running:
    """Parent-side bookkeeping for one live job subprocess."""

    __slots__ = ("process", "job_dir", "started_monotonic")

    def __init__(
        self,
        process: multiprocessing.process.BaseProcess,
        job_dir: Path,
        started_monotonic: float,
    ) -> None:
        self.process = process
        self.job_dir = job_dir
        self.started_monotonic = started_monotonic


class JobManager:
    """Owns job state, the scheduler thread, and the write-ahead store."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        max_running: int = 2,
        max_queue: int = 16,
        tenant_budget: int = 4,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        retry_backoff_base: float = 0.1,
        retry_backoff_cap: float = 2.0,
        max_attempts: int = 3,
        fault_plan: FaultPlan | None = None,
        slo_policy: SloPolicy | None = None,
        sample_interval: float = 2.0,
        history_capacity: int = 720,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / "jobs"
        self.max_running = max_running
        self.max_queue = max_queue
        self.tenant_budget = tenant_budget
        self.heartbeat_timeout = heartbeat_timeout
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap
        self.max_attempts = max_attempts
        self.fault_plan = fault_plan

        self.store = JobStore(self.data_dir)
        self.jobs: dict[str, JobRecord] = {}
        self.counters = CounterSet()
        self.metrics = MetricSet()
        #: The server's own span surface: submit/launch spans land in
        #: ``<data_dir>/trace.jsonl`` (appended across restarts) so the
        #: stitcher can root every job's cross-process trace here.  The
        #: WAL creates the directory lazily; the sink needs it now.
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer(
            JsonLinesSink.open(str(self.data_dir / "trace.jsonl"), append=True)
        )
        #: Background snapshot thread feeding /metrics/history and the
        #: rolling SLO windows that can degrade /healthz.
        self.sampler = TelemetrySampler(
            self._telemetry_snapshot,
            interval=sample_interval,
            capacity=history_capacity,
            policy=slo_policy or SloPolicy(),
            transition=self._slo_transition,
        )

        #: Each attempt is forked from the process's fork server, which
        #: starts on the first launch and sees the environment of that
        #: moment; every piece of per-job state travels in the arguments.
        self._context = multiprocessing.get_context("forkserver")
        self._context.set_forkserver_preload(RUNNER_PRELOAD)
        self._lock = threading.RLock()
        self._queue: deque[str] = deque()
        self._running: dict[str, _Running] = {}
        #: Monotonic earliest-launch time per backed-off job id.
        self._not_before: dict[str, float] = {}
        self._seq = 0
        self._draining = False
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None
        #: Write end of the scheduler's wake-up pipe: opened by start(),
        #: closed with the read end by the scheduler thread as it exits.
        self._waker: int | None = None
        #: Sweep report from recovery (surfaced in /healthz).
        self.startup_sweep: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover persisted state and start the scheduler + sampler."""
        self.recover()
        reader, writer = os.pipe()
        os.set_blocking(writer, False)
        self._waker = writer
        self._wake()  # recovered jobs launch at once
        self._thread = threading.Thread(
            target=self._scheduler_loop,
            args=(reader, writer),
            name="repro-service-scheduler",
        )
        self._thread.start()
        self.sampler.start()

    def recover(self) -> None:
        """Rebuild the job table from disk and re-queue interrupted work.

        Also sweeps shared-memory segments orphaned by a previous crash
        (satellite of the same robustness story: a SIGKILLed runner or
        server must not leak ``/dev/shm`` forever), empties the dataset
        store and compacts a long WAL so replay stays bounded by live jobs.
        """
        from repro.shard.manifest import sweep_orphans

        shutil.rmtree(self.data_dir / runner.DATASET_DIR, ignore_errors=True)
        replay = self.store.load()
        with self._lock:
            self._seq = replay.max_seq
            if replay.corrupt_lines:
                self.counters.incr(
                    "service.wal_corrupt_lines", replay.corrupt_lines
                )
            for raw in replay.records.values():
                record = JobRecord.from_json(raw)
                self.jobs[record.id] = record
            interrupted = sorted(
                (record for record in self.jobs.values() if not record.terminal),
                key=lambda record: record.seq,
            )
            for record in interrupted:
                was_running = record.state == RUNNING
                record.state = QUEUED
                record.recovered = True
                if was_running and self._has_checkpoint(record):
                    record.resumed = True
                self._commit(record)
                self._queue.append(record.id)
                self.counters.incr("service.jobs_recovered")
        self.startup_sweep = sweep_orphans().as_dict()
        self.counters.incr(
            "service.shm_segments_swept",
            self.startup_sweep["segments_unlinked"],
        )
        if self.store.wal_line_count() >= COMPACT_THRESHOLD:
            self.compact()

    def compact(self) -> None:
        with self._lock:
            self.store.compact(
                {job_id: record.to_json() for job_id, record in self.jobs.items()},
                self._seq,
            )

    def drain(self, *, grace_seconds: float = DRAIN_GRACE_SECONDS) -> None:
        """Graceful shutdown: checkpoint running jobs, persist, stop.

        Idempotent.  After this returns the manager accepts nothing, no
        child is alive, every interrupted job is ``queued`` on disk with
        its checkpoint intact, and the WAL is compacted.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        self._stopped.set()
        self._wake()
        # Stop the sampler with the manager lock *released*: its final
        # tick may be inside _telemetry_snapshot waiting on that lock,
        # and stop() joins the thread (RA006).
        self.sampler.stop()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=grace_seconds)
        with self._lock:
            running = dict(self._running)
        for live in running.values():
            if live.process.is_alive():
                live.process.terminate()  # SIGTERM -> DrainRequested
        deadline = time.monotonic() + grace_seconds
        for live in running.values():
            live.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if live.process.is_alive():
                live.process.kill()
                live.process.join(timeout=5.0)
        with self._lock:
            for job_id, live in running.items():
                self._running.pop(job_id, None)
                record = self.jobs[job_id]
                result = runner.read_result(live.job_dir)
                if result is not None and result.get("status") == "succeeded":
                    self._finish_success(record, result)
                else:
                    # Drained (checkpointed) or killed after the grace
                    # period — either way the checkpoint on disk is the
                    # resume point and the job goes back to the queue.
                    record.state = QUEUED
                    record.resumed = self._has_checkpoint(record)
                    self._commit(record)
                    self._queue.appendleft(job_id)
                    self.counters.incr("service.jobs_drained")
            self.compact()
            self.store.close()
        # Flush (not close) the span sink: buffered submit/launch spans
        # must land, but a post-drain caller hitting the API surface
        # should get a clean rejection, not a write-to-closed-file.
        self.tracer.flush()

    # ------------------------------------------------------------------
    # submission / inspection API (called from the HTTP layer)
    # ------------------------------------------------------------------
    def submit(
        self, spec: JobSpec, traceparent: str | None = None
    ) -> JobRecord:
        """Validate, admit, persist, and enqueue one job.

        Raises :class:`~repro.service.jobs.JobValidationError` on a
        malformed spec (400) and :class:`AdmissionError` on refusal
        (429/503) — both *before* anything is persisted.

        ``traceparent`` is the caller's propagated trace context (the
        HTTP layer forwards the request header).  The submit span
        continues that trace when present, or roots a fresh one; either
        way its own position is persisted on the record, so every later
        attempt — across retries and server restarts — stays on the one
        trace the job got here.
        """
        spec.validate()
        context = TraceContext.from_traceparent(traceparent) or TraceContext.root()
        with self.tracer.span_from(
            context,
            "service.job.submit",
            tenant=spec.tenant,
            algorithm=spec.algorithm,
            mode=spec.mode,
        ) as sp:
            with self._lock:
                if self._draining:
                    self._reject("draining", "server is draining; resubmit later")
                queued = sum(
                    1 for record in self.jobs.values() if record.state == QUEUED
                )
                if queued >= self.max_queue:
                    self._reject(
                        "queue_full",
                        f"queue depth {queued} is at the limit ({self.max_queue})",
                    )
                tenant_active = sum(
                    1
                    for record in self.jobs.values()
                    if record.active and record.spec.tenant == spec.tenant
                )
                if tenant_active >= self.tenant_budget:
                    self._reject(
                        "tenant_budget",
                        f"tenant {spec.tenant!r} already has {tenant_active} "
                        f"active job(s) (budget {self.tenant_budget})",
                    )
                self._seq += 1
                job_id = job_id_for(self._seq)
                job_dir = self.jobs_dir / job_id
                try:
                    spec = spill_memory_dataset(spec, job_dir)
                except ConnectorError:
                    self._seq -= 1
                    raise
                record = JobRecord(
                    id=job_id,
                    seq=self._seq,
                    spec=spec,
                    state=QUEUED,
                    max_attempts=self.max_attempts,
                    submitted_at=time.time(),
                    traceparent=sp.traceparent(),
                )
                sp.set(job_id=job_id)
                self._commit(record)
                self._queue.append(job_id)
                self.counters.incr("service.jobs_submitted")
                self._wake()
        # Lifecycle spans are rare (a handful per job) and the stitcher
        # may run against a live server: land this one on disk now
        # instead of waiting for a later emit to trip the sink buffer.
        self.tracer.flush()
        return record

    def _reject(self, reason: str, detail: str) -> None:
        self.counters.incr(f"service.rejected.{reason}")
        raise AdmissionError(reason, detail)

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self.jobs.get(job_id)

    def list_jobs(self) -> list[dict[str, Any]]:
        with self._lock:
            return [
                self.jobs[job_id].summary()
                for job_id in sorted(self.jobs)
            ]

    def result(self, job_id: str) -> dict[str, Any] | None:
        """The terminal result document of a succeeded job, if any."""
        with self._lock:
            record = self.jobs.get(job_id)
            if record is None or record.state != SUCCEEDED:
                return None
        return runner.read_result(self.job_dir(job_id))

    def cancel(self, job_id: str) -> JobRecord | None:
        """Cancel a non-terminal job (kills its runner if live)."""
        with self._lock:
            record = self.jobs.get(job_id)
            if record is None or record.terminal:
                return record
            live = self._running.pop(job_id, None)
            if live is not None and live.process.is_alive():
                live.process.kill()
            if job_id in self._queue:
                self._queue.remove(job_id)
            self._not_before.pop(job_id, None)
            record.state = CANCELLED
            record.finished_at = time.time()
            self._commit(record)
            runner.clear_terminal_artifacts(self.job_dir(job_id))
            self.counters.incr("service.jobs_cancelled")
            self._wake()
            return record

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    # ------------------------------------------------------------------
    # health / metrics documents
    # ------------------------------------------------------------------
    def health_document(self) -> dict[str, Any]:
        # Read the SLO judgement before taking the manager lock so the
        # two locks are never held together from this path (RA006).
        slo = self.sampler.slo_status()
        with self._lock:
            states: dict[str, int] = {}
            tenants: dict[str, int] = {}
            for record in self.jobs.values():
                states[record.state] = states.get(record.state, 0) + 1
                if record.active:
                    tenant = record.spec.tenant
                    tenants[tenant] = tenants.get(tenant, 0) + 1
            if self._draining:
                status = "draining"
            elif not slo["ok"]:
                status = "degraded"
            else:
                status = "ok"
            return {
                "status": status,
                "jobs": states,
                "queue_depth": len(self._queue),
                "running": len(self._running),
                "max_running": self.max_running,
                "tenants": tenants,
                "tenant_budget": self.tenant_budget,
                "slo": slo,
                "startup_sweep": self.startup_sweep,
            }

    def metrics_document(self) -> dict[str, Any]:
        with self._lock:
            return {
                "counters": self.counters.as_dict(),
                "metrics": self.metrics.as_dict(),
            }

    def history_document(self) -> dict[str, Any]:
        """The sampler's ring buffer as a JSON time series."""
        return self.sampler.history_document()

    def prometheus_document(self) -> str:
        """Current counters/gauges/histograms as Prometheus text."""
        snap = self._telemetry_snapshot(record_sample=False)
        return prometheus_exposition(
            snap["counters"], snap["gauges"], snap["metrics"]
        )

    def _telemetry_snapshot(
        self, lag_seconds: float | None = None, *, record_sample: bool = True
    ) -> dict[str, Any]:
        """One cumulative snapshot of the obs surfaces, under the lock.

        The sampler thread calls this each tick (``record_sample=True``
        counts the tick and its scheduling drift); the Prometheus scrape
        path reuses it with ``record_sample=False`` so scrape frequency
        never pollutes the sampled series.
        """
        with self._lock:
            if record_sample:
                self.counters.incr("telemetry.samples")
                if lag_seconds is not None:
                    self.metrics.observe(
                        "telemetry.sample_lag_seconds", lag_seconds
                    )
            gauges: dict[str, float] = {
                "queue_depth": float(len(self._queue)),
                "running": float(len(self._running)),
                "max_running": float(self.max_running),
                "draining": float(self._draining),
            }
            for record in self.jobs.values():
                key = f"jobs_{record.state}"
                gauges[key] = gauges.get(key, 0.0) + 1.0
            return {
                "counters": self.counters.as_dict(),
                "gauges": gauges,
                "metrics": self.metrics.copy(),
            }

    def _slo_transition(self, kind: str, name: str, detail: str) -> None:
        """Sampler callback counting SLO state changes (never log spam:
        one increment per edge, not per breached sample)."""
        with self._lock:
            if kind == "breach":
                self.counters.incr("slo.breaches")
                self.counters.incr(f"slo.breach.{name}")
            else:
                self.counters.incr("slo.recoveries")

    def idle(self) -> bool:
        """True when no job is queued, backed off, or running."""
        with self._lock:
            return not self._queue and not self._running and not self._not_before

    def wait_idle(self, timeout: float) -> bool:
        """Poll until idle (tests and the bench harness); False on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.idle():
                return True
            time.sleep(POLL_INTERVAL)
        return self.idle()

    # ------------------------------------------------------------------
    # scheduler internals
    # ------------------------------------------------------------------
    def _scheduler_loop(self, reader: int, writer: int) -> None:
        try:
            while self._await_work(reader):
                try:
                    self._tick()
                except Exception:  # noqa: BLE001 - scheduler must survive anything
                    self.counters.incr("service.scheduler_errors")
        finally:
            # Closed by the pipe's one reader, once no wait can use it;
            # a later _wake() finds no descriptor and does nothing.
            with self._lock:
                self._waker = None
            os.close(reader)
            os.close(writer)

    def _await_work(self, reader: int) -> bool:
        """Sleep until a wake, a runner's exit or :data:`POLL_INTERVAL`.

        The running runners' sentinels are gathered under the lock and
        waited on outside it (RA006).  A ready sentinel means its runner
        is no longer alive, so the tick that follows collects it and it
        leaves the next wait set: an exited runner cannot spin the loop.
        False once the manager is stopping (no further tick runs).
        """
        with self._lock:
            sentinels = [live.process.sentinel for live in self._running.values()]
        ready = multiprocessing.connection.wait(
            [reader, *sentinels], timeout=POLL_INTERVAL
        )
        if reader in ready:
            os.read(reader, 4096)  # every pending wake at once
        return not self._stopped.is_set()

    def _wake(self) -> None:
        """Make the scheduler tick now, without ever blocking the caller
        (submit() calls this under the lock): one byte down the pipe, and
        a full pipe is already a pending wake."""
        with self._lock:
            if self._waker is not None:
                with suppress(BlockingIOError):
                    os.write(self._waker, b"\0")

    def _tick(self) -> None:
        with self._lock:
            self._collect_finished()
            victims = self._enforce_watchdogs()
            self._launch_ready()
        # Reap killed runners *outside* the lock: join() can stall for
        # its full timeout on a child wedged in uninterruptible IO, and
        # every API call contends on this lock (RA006).  The victims
        # are already out of _running, so state stays consistent.
        for process in victims:
            process.join(timeout=5.0)

    def _launch_ready(self) -> None:
        now = time.monotonic()
        while self._queue and len(self._running) < self.max_running:
            job_id = self._queue[0]
            not_before = self._not_before.get(job_id)
            if not_before is not None and now < not_before:
                # Backed-off head blocks only itself: rotate it to the
                # tail so ready jobs behind it are not starved.
                self._queue.rotate(-1)
                if all(
                    self._not_before.get(queued, 0.0) > now
                    for queued in self._queue
                ):
                    return
                continue
            self._queue.popleft()
            self._not_before.pop(job_id, None)
            self._launch(self.jobs[job_id])

    def _launch(self, record: JobRecord) -> None:
        job_dir = self.job_dir(record.id)
        job_dir.mkdir(parents=True, exist_ok=True)
        runner.clear_attempt_artifacts(job_dir)
        resume = self._has_checkpoint(record)
        if resume:
            record.resumed = True
            self.counters.incr("service.jobs_resumed")
        directive = None
        if self.fault_plan is not None:
            kind = self.fault_plan.draw(record.seq, record.attempt)
            directive = _DIRECTIVE_FOR_KIND.get(kind) if kind else None
            if directive is not None:
                self.counters.incr(f"service.injected.{directive}")
        record.attempt += 1
        record.state = RUNNING
        first_start = record.started_at is None
        record.started_at = record.started_at or time.time()
        if first_start:
            self.metrics.observe(
                "latency.job_queue_seconds",
                max(0.0, record.started_at - record.submitted_at),
            )
        self._commit(record)
        # Each attempt gets a launch span under the job's persisted
        # submit span; the child's whole tracer is then parented under
        # *this* attempt's span via the traceparent argv field.
        with self.tracer.span_from(
            TraceContext.from_traceparent(record.traceparent),
            "service.job.launch",
            job_id=record.id,
            attempt=record.attempt,
            resume=resume,
        ) as sp:
            process = self._context.Process(
                target=runner.run_job_child,
                args=(
                    record.spec.to_json(),
                    str(job_dir),
                    resume,
                    directive,
                    sp.traceparent(),
                ),
                name=f"repro-job-{record.id}",
                daemon=False,
            )
            try:
                process.start()
            except Exception as error:  # noqa: BLE001 - the attempt's cause
                self._crashed_attempt(record, f"runner failed to start: {error}")
                return
        self.tracer.flush()  # see submit(): land lifecycle spans promptly
        self._running[record.id] = _Running(process, job_dir, time.monotonic())

    def _collect_finished(self) -> None:
        for job_id in list(self._running):
            live = self._running[job_id]
            if live.process.is_alive():
                continue
            self._running.pop(job_id)
            record = self.jobs[job_id]
            result = runner.read_result(live.job_dir)
            status = result.get("status") if result is not None else None
            if status == "succeeded":
                self._finish_success(record, result)
            elif status == "failed":
                # The algorithm itself raised: deterministic, so a retry
                # would fail identically — terminal, cause recorded.
                self._finish_failure(
                    record, str(result.get("cause") or "unknown error")
                )
            elif status == "drained":
                record.state = QUEUED
                self._commit(record)
                self._queue.appendleft(job_id)
                self.counters.incr("service.jobs_drained")
            else:
                # No (parseable) result: the runner died raw.
                self._crashed_attempt(
                    record,
                    f"runner crashed (exit code {live.process.exitcode})",
                )

    def _enforce_watchdogs(self) -> list[BaseProcess]:
        """Kill overdue/hung runners; return them for the caller to
        reap once the lock is released."""
        victims: list[BaseProcess] = []
        now_monotonic = time.monotonic()
        now_wall = time.time()
        for job_id in list(self._running):
            live = self._running[job_id]
            if not live.process.is_alive():
                continue  # collected on the next tick
            record = self.jobs[job_id]
            deadline = record.spec.deadline_seconds
            if deadline is not None and record.started_at is not None:
                if now_wall - record.started_at > deadline:
                    live.process.kill()
                    victims.append(live.process)
                    self._running.pop(job_id)
                    self.counters.incr("service.deadline_kills")
                    self._finish_failure(
                        record,
                        f"deadline exceeded ({deadline:g}s)",
                    )
                    continue
            stale = self._heartbeat_age(live, now_monotonic)
            if stale is not None and stale > self.heartbeat_timeout:
                live.process.kill()
                victims.append(live.process)
                self._running.pop(job_id)
                self.counters.incr("service.watchdog_kills")
                self._crashed_attempt(
                    record, f"hung runner (heartbeat stale {stale:.1f}s)"
                )
        return victims

    def _heartbeat_age(self, live: _Running, now_monotonic: float) -> float | None:
        """Seconds since the child last proved liveness, or None if unknowable.

        Before the first heartbeat lands the child is importing, not
        hung, so it gets :data:`STARTUP_GRACE_SECONDS` measured from
        process start; a child that never beats at all is still caught
        once the grace runs out.
        """
        heartbeat = live.job_dir / runner.HEARTBEAT_FILE
        try:
            mtime = heartbeat.stat().st_mtime
        except OSError:
            since_start = now_monotonic - live.started_monotonic
            return since_start if since_start > STARTUP_GRACE_SECONDS else None
        return time.time() - mtime

    def _crashed_attempt(self, record: JobRecord, cause: str) -> None:
        if record.attempt >= record.max_attempts:
            self._finish_failure(
                record, f"{cause} after {record.attempt} attempt(s)"
            )
            return
        backoff = min(
            self.retry_backoff_cap,
            self.retry_backoff_base * (2 ** (record.attempt - 1)),
        )
        record.state = QUEUED
        self._commit(record)
        self._not_before[record.id] = time.monotonic() + backoff
        self._queue.append(record.id)
        self.counters.incr("service.retries")

    def _finish_success(self, record: JobRecord, result: dict[str, Any]) -> None:
        record.state = SUCCEEDED
        record.finished_at = time.time()
        self._commit(record)
        runner.clear_terminal_artifacts(self.job_dir(record.id))
        self.counters.incr("service.jobs_succeeded")
        if record.resumed:
            self.counters.incr("service.jobs_resumed_succeeded")
        if record.started_at is not None:
            self.metrics.observe(
                "latency.job_run_seconds",
                max(0.0, record.finished_at - record.started_at),
            )
        self.metrics.observe(
            "latency.job_total_seconds",
            max(0.0, record.finished_at - record.submitted_at),
        )

    def _finish_failure(self, record: JobRecord, cause: str) -> None:
        record.state = FAILED
        record.cause = cause
        record.finished_at = time.time()
        self._commit(record)
        runner.clear_terminal_artifacts(self.job_dir(record.id))
        self.counters.incr("service.jobs_failed")

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _has_checkpoint(self, record: JobRecord) -> bool:
        return (self.job_dir(record.id) / runner.CHECKPOINT_FILE).exists()

    def _commit(self, record: JobRecord) -> None:
        """Write-ahead: the WAL line lands (fsync'd) before side effects."""
        self.store.append(record.to_json())
        self.jobs[record.id] = record

