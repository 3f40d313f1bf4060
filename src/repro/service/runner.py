"""The per-job subprocess runner: isolation, heartbeats, drain, resume.

Every accepted job attempt executes in its own subprocess, forked from a
preloaded fork server (:func:`run_job_child` is the process target), for
three reasons the robustness contract depends on:

* **crash containment** — a runner that segfaults, OOMs, or is killed by
  the watchdog takes down one job's attempt, never the server;
* **budget enforcement** — per-job execution mode and worker count are
  just the existing :class:`~repro.parallel.ExecutionConfig`, installed
  inside the child, so one tenant's shard pool cannot commandeer
  another job's workers;
* **resumability** — the child checkpoints through the job's own
  :class:`~repro.resilience.CheckpointStore` after every completed
  level, so any later attempt (retry, drain, whole-server restart)
  resumes with ``resume=True`` and never re-scans completed levels.

Liveness is a heartbeat file: a daemon thread touches
``<job_dir>/heartbeat`` every :data:`HEARTBEAT_INTERVAL` seconds, and the
manager's watchdog treats a stale mtime as a hung runner — kill, then
retry with backoff.  A *graceful* stop (server drain) is SIGTERM: the
child converts it into a :class:`DrainRequested` raised at the next
bytecode boundary, records a ``drained`` result, and exits cleanly; the
level checkpoint already on disk is the drain point.

Fault injection reuses the seeded :class:`~repro.resilience.FaultPlan`
vocabulary one layer up: the manager draws ``(job seq, attempt)`` →
crash/timeout decisions from the plan and ships them as *directives*;
the child applies them **after its first checkpoint save**, so an
injected crash always exercises true mid-flight resume (and an injected
hang stops the heartbeat first, so the watchdog path actually fires).

The child reads a ``csv:`` dataset through the data directory's
:class:`~repro.service.connectors.DatasetStore`.  :func:`run_job_inline`
is the differential oracle: the same spec executed directly in-process,
no subprocess, no checkpoint, no dataset store — the chaos suite asserts
byte-identical payloads between the two.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core import ALGORITHMS
from repro.resilience.atomicio import atomic_write_json
from repro.resilience.checkpoint import CheckpointStore

if TYPE_CHECKING:
    from repro.service.jobs import JobSpec

#: Seconds between heartbeat touches in the child.
HEARTBEAT_INTERVAL = 0.2

#: Exit code of an injected runner crash (mirrors the worker-fault code).
CRASH_EXIT_CODE = 73

#: File names inside one job's directory.
RESULT_FILE = "result.json"
HEARTBEAT_FILE = "heartbeat"
CHECKPOINT_FILE = "checkpoint.ckpt.json"
TRACE_FILE = "trace.jsonl"
LOG_FILE = "runner.log"

#: The dataset store's directory, beside ``jobs/`` in the data directory.
DATASET_DIR = "datasets"


class DrainRequested(BaseException):
    """SIGTERM received: stop at the next bytecode boundary and drain.

    Derives from ``BaseException`` so ordinary ``except Exception``
    error handling inside algorithms cannot swallow a drain.
    """


# ----------------------------------------------------------------------
# result payloads (shared by the child and the inline oracle)
# ----------------------------------------------------------------------
def frequency_fingerprint(problem: Any, node: Any) -> str:
    """Content hash of one node's frequency set (fresh scan, no cache).

    The chaos suite's bit-identity witness: two runs that produce the
    same fingerprint computed the same key codes and counts byte for
    byte, whatever path (resume, retry, degradation) they took.
    """
    from repro.core.anonymity import FrequencyEvaluator
    from repro.core.stats import SearchStats

    frequency_set = FrequencyEvaluator(problem, SearchStats()).scan(node)
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(frequency_set.key_codes).tobytes())
    digest.update(np.ascontiguousarray(frequency_set.counts).tobytes())
    return digest.hexdigest()


def result_payload(
    problem: Any, result: Any, spec_json: dict[str, Any]
) -> dict[str, Any]:
    """The job's terminal result document (also the comparable oracle).

    ``comparable()`` below names the subset that must be bit-identical
    between a service execution (with any number of crashes, resumes,
    and retries along the way) and a direct batch run.
    """
    best = result.best_node() if result.found else None
    counters = {
        key: value
        for key, value in result.stats.as_dict().items()
        if key.startswith("frequency.")
    }
    return {
        "status": "succeeded",
        "found": bool(result.found),
        "anonymous_nodes": [node.label() for node in result.anonymous_nodes],
        "best_node": best.label() if best is not None else None,
        "fingerprint": (
            frequency_fingerprint(problem, best) if best is not None else None
        ),
        "frequency_counters": counters,
        "nodes_checked": int(result.stats.nodes_checked),
        "k": spec_json["k"],
        "algorithm": spec_json["algorithm"],
    }


def comparable(payload: dict[str, Any]) -> dict[str, Any]:
    """The payload subset the bit-identity contract covers."""
    return {
        key: payload[key]
        for key in (
            "found",
            "anonymous_nodes",
            "best_node",
            "fingerprint",
            "frequency_counters",
            "k",
            "algorithm",
        )
    }


def run_job_inline(spec: "JobSpec") -> dict[str, Any]:
    """Execute a job spec directly in-process: the differential oracle.

    No subprocess, no checkpointing, no supervision — the plain batch
    path a ``repro.cli`` run would take.  Chaos tests compare
    ``comparable()`` of this against the service's persisted result.
    """
    from repro.service.connectors import load_problem

    problem = load_problem(spec)
    algorithm = ALGORITHMS[spec.algorithm]
    with _execution_region(spec):
        result = algorithm(problem, spec.k, max_suppression=spec.max_suppression)
    return result_payload(problem, result, spec.to_json())


def _execution_region(spec: "JobSpec") -> Any:
    from repro.parallel import ExecutionConfig, use_execution

    return use_execution(
        ExecutionConfig(
            mode=spec.mode if spec.workers > 1 else "serial",
            workers=spec.workers,
            shard_rows=spec.shard_rows,
        )
    )


# ----------------------------------------------------------------------
# child-side machinery
# ----------------------------------------------------------------------
class _Heartbeat:
    """Daemon thread touching the job's heartbeat file at a fixed cadence."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )

    def start(self) -> None:
        self.path.touch()
        self._thread.start()

    def _run(self) -> None:
        while not self.stop.wait(HEARTBEAT_INTERVAL):
            try:
                self.path.touch()
            except OSError:
                return  # job dir vanished: the parent is tearing us down


class _FaultingStore(CheckpointStore):
    """Checkpoint store that injects a runner fault after the first save.

    Crashing *after* a save is what makes the injection meaningful: the
    next attempt finds a valid checkpoint and must genuinely resume.
    ``hang`` silences the heartbeat first — a wedged process stops
    beating, and the watchdog (not the fault) must kill it.
    """

    def __init__(
        self, path: Path, directive: str, heartbeat: _Heartbeat
    ) -> None:
        super().__init__(path)
        self.directive = directive
        self.heartbeat = heartbeat

    def save(self, state: dict[str, Any]) -> None:
        super().save(state)
        if self.saves != 1:
            return
        if self.directive == "crash":
            os._exit(CRASH_EXIT_CODE)  # noqa: SLF001 - simulated runner death
        if self.directive == "hang":
            self.heartbeat.stop.set()
            while True:  # wedged: no beats, no progress, no exit
                time.sleep(3600)


def _install_drain_handler() -> None:
    def handler(signum: int, frame: object) -> None:
        raise DrainRequested()

    signal.signal(signal.SIGTERM, handler)


class _StructuredLog:
    """``runner.log`` as JSON lines that correlate with the trace.

    Every line carries the job id and trace/span ids, so ``grep
    <trace_id> runner.log`` finds the lifecycle events of exactly the
    attempts a stitched Chrome trace shows.  Write failures are
    swallowed: logging must never take down an attempt.
    """

    def __init__(self, handle: Any, **common: Any) -> None:
        self._handle = handle
        self._common = common

    def bind(self, **fields: Any) -> None:
        self._common.update(fields)

    def event(self, event: str, **fields: Any) -> None:
        record = {"ts": time.time(), "event": event}
        record.update(self._common)
        record.update(fields)
        try:
            self._handle.write(json.dumps(record, default=str) + "\n")
            self._handle.flush()
        except (OSError, ValueError):
            pass


def run_job_child(
    spec_json: dict[str, Any],
    job_dir: str,
    resume: bool,
    directive: str | None,
    traceparent: str | None = None,
) -> None:
    """Process target: execute one job attempt inside its own process.

    Writes ``result.json`` atomically with status ``succeeded`` /
    ``failed`` / ``drained`` and exits 0; any other exit (crash, kill,
    injected death) leaves no result file, which the manager treats as a
    crashed attempt.  Trace spans land in ``trace.jsonl`` per job —
    opened in append mode so earlier attempts' spans survive, and
    parented under the manager's launch span via ``traceparent``, so
    every attempt of the job shares the trace id minted at submission.
    """
    from repro import obs
    from repro.service.jobs import JobSpec

    directory = Path(job_dir)
    _install_drain_handler()
    heartbeat = _Heartbeat(directory / HEARTBEAT_FILE)
    heartbeat.start()
    # Everything after start() runs under the outer try: an exception in
    # setup (log open, spec parse, sink open) must still stop the
    # heartbeat thread, or a dead attempt keeps beating and the watchdog
    # never learns (RA008).
    try:
        log_handle = open(directory / LOG_FILE, "a", encoding="utf-8")
        sys.stdout = log_handle  # noqa: RA000 - child-scoped redirect
        sys.stderr = log_handle

        spec = JobSpec.from_json(spec_json)
        sink = obs.JsonLinesSink.open(directory / TRACE_FILE, append=True)
        context = obs.TraceContext.from_traceparent(traceparent)
        tracer = obs.Tracer(sink, context=context)
        log = _StructuredLog(
            log_handle,
            job_id=directory.name,
            pid=os.getpid(),
            trace_id=tracer.trace_id,
        )
        store: CheckpointStore = (
            _FaultingStore(directory / CHECKPOINT_FILE, directive, heartbeat)
            if directive is not None
            else CheckpointStore(directory / CHECKPOINT_FILE)
        )
        try:
            with obs.use_tracer(tracer):
                with obs.span(
                    "service.job.run",
                    job_dir=str(directory.name),
                    algorithm=spec.algorithm,
                    attempt_resume=bool(resume),
                ) as sp:
                    # Pool/shard workers spawned below inherit these:
                    # where to write their own span files, and which
                    # trace position to fall back to when a chunk
                    # payload carries no context of its own.
                    os.environ[obs.TRACE_DIR_ENV] = str(directory)
                    os.environ[obs.TRACEPARENT_ENV] = sp.traceparent()
                    log.bind(span_id=sp.span_id)
                    log.event(
                        "attempt_start",
                        algorithm=spec.algorithm,
                        mode=spec.mode,
                        resume=bool(resume),
                        directive=directive,
                    )
                    from repro.service.connectors import DatasetStore, load_problem

                    datasets = DatasetStore(directory.parents[1] / DATASET_DIR)
                    with obs.span("service.job.load", dataset=spec.dataset) as load:
                        problem = load_problem(spec, datasets)
                        load.set(store=datasets.outcome)
                    algorithm = ALGORITHMS[spec.algorithm]
                    with _execution_region(spec):
                        result = algorithm(
                            problem,
                            spec.k,
                            max_suppression=spec.max_suppression,
                            checkpoint=store,
                            resume=resume,
                        )
                    payload = result_payload(problem, result, spec.to_json())
            atomic_write_json(directory / RESULT_FILE, payload)
            log.event("attempt_finished", status="succeeded")
        except DrainRequested:
            atomic_write_json(
                directory / RESULT_FILE,
                {"status": "drained", "saves": store.saves},
            )
            log.event("attempt_finished", status="drained", saves=store.saves)
        except BaseException as error:  # noqa: BLE001 - the job's cause
            cause = f"{type(error).__name__}: {error}"
            atomic_write_json(
                directory / RESULT_FILE,
                {"status": "failed", "cause": cause},
            )
            log.event("attempt_finished", status="failed", cause=cause)
        finally:
            try:
                sink.close()
            except OSError:
                pass
            log_handle.flush()
    finally:
        heartbeat.stop.set()


# ----------------------------------------------------------------------
# parent-side result collection helpers
# ----------------------------------------------------------------------
def read_result(job_dir: Path) -> dict[str, Any] | None:
    """The child's result document, or None when the attempt died raw.

    The file is written atomically by the child, so a parse failure is
    not a torn write — it is treated like a missing file (crashed
    attempt) rather than trusted.
    """
    try:
        text = (job_dir / RESULT_FILE).read_text()
    except FileNotFoundError:
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def clear_attempt_artifacts(job_dir: Path) -> None:
    """Remove the previous attempt's result and heartbeat before a rerun.

    The stale heartbeat must go too — its old mtime would read as "hung"
    the instant the new attempt starts.  The checkpoint file deliberately
    survives: it is the resume point.
    """
    (job_dir / RESULT_FILE).unlink(missing_ok=True)
    (job_dir / HEARTBEAT_FILE).unlink(missing_ok=True)


def clear_terminal_artifacts(job_dir: Path) -> None:
    """Drop the resume machinery once a job can never run again.

    A terminal job (succeeded / failed / cancelled) has no further
    attempt to resume, so keeping its checkpoint would be an orphan —
    the chaos suite asserts none survive.  The result file stays: it is
    the job's deliverable.
    """
    CheckpointStore(job_dir / CHECKPOINT_FILE).clear()
    (job_dir / HEARTBEAT_FILE).unlink(missing_ok=True)
