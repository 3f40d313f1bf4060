"""Worker side of :mod:`repro.parallel`: one chunk of jobs at a time.

:func:`execute_chunk` runs a chunk of ``(node, kind, payload)`` jobs
through a private :class:`~repro.core.anonymity.FrequencyEvaluator`, in a
pool thread (``threads``), in the parent (the supervised path's serial
fallback), or in a ``shards`` worker process via :func:`run_chunk`.

A ``shards`` worker is initialised once by :func:`init_worker_shared`
with a small :class:`~repro.shard.shm.SharedProblemHandle`; the problem it
rebuilds reads the QI code arrays zero-copy from the parent's
shared-memory segments.  After that, each :func:`run_chunk` call ships
only lattice nodes and plain scan plans (row ranges) — never the base
table, and never a frequency set: the parent runs every rollup and
delta scan itself.  A scan job loops over its plan's ranges in the
worker, exactly as in a serial run.

Results come back as raw ``(key_codes, counts)`` array pairs together with
the chunk's :class:`~repro.obs.counters.CounterSet` stats delta and its
:class:`~repro.obs.metrics.MetricSet` telemetry delta (per-job latency
histograms plus ``worker.*`` queue-wait / chunk-duration / RSS
observations); the parent rebuilds
:class:`~repro.core.anonymity.FrequencySet` objects against its own
problem instance and merges the deltas in deterministic (submission)
order.  Everything crossing the boundary is plain picklable data — numpy
arrays, tuples, ``CounterSet``, ``MetricSet`` — so the module works under
the ``fork``, ``spawn`` and ``forkserver`` start methods alike.
"""

from __future__ import annotations

import os
import sys
import time
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from repro.core.problem import PreparedTable
    from repro.obs.counters import CounterSet
    from repro.obs.metrics import MetricSet

#: The worker-resident problem, installed once per process by the pool
#: initializer.  Module-global on purpose: executor task functions must be
#: importable top-level callables, and the problem must not be re-pickled
#: per task.
_PROBLEM: "PreparedTable | None" = None

#: Seconds between a shard worker's checks that its parent is alive.
_ORPHAN_POLL_SECONDS = 0.5


def init_worker_shared(handle) -> None:
    """Pool initializer: attach the shared problem in this process.

    ``handle`` is a :class:`repro.shard.shm.SharedProblemHandle` — segment
    names, dtypes, shapes, dictionaries, and compiled hierarchies.  The
    rebuilt problem's code arrays are read-only views into the parent's
    shared-memory segments, so initialising a worker costs a few mmaps
    instead of unpickling the whole table.  Workers never ``unlink``; the
    owning :class:`~repro.shard.shm.SharedTableStore` does that once the
    pool has shut down.

    Also replaces the tracer: under the ``fork`` start method the worker
    inherits the parent's active tracer, and concurrent writes to an
    inherited JSON-lines sink would tear lines in the trace file.  When
    the parent exported a trace directory (:data:`repro.obs.TRACE_DIR_ENV`
    — the service runner does this), the worker opens its *own* per-pid
    ``trace-worker-<pid>.jsonl`` sink there and continues the propagated
    trace (:data:`repro.obs.TRACEPARENT_ENV`); otherwise tracing is
    disabled and the only signal leaving a worker is the per-chunk
    counter delta, which the parent merges deterministically.

    In a child process it finally starts the :func:`_exit_when_orphaned`
    watchdog, so the worker dies with its parent.
    """
    import multiprocessing
    import threading
    from pathlib import Path

    from repro import obs
    from repro.obs.trace import Tracer
    from repro.shard.shm import attach_problem

    # ra: RA003 -- sanctioned worker-resident state: the problem is attached
    # once via the pool initializer and is read-only thereafter; shipping it
    # per-chunk would serialize the table on every submit.
    global _PROBLEM
    _PROBLEM = attach_problem(handle)

    trace_dir = os.environ.get(obs.TRACE_DIR_ENV)
    if trace_dir:
        sink = obs.JsonLinesSink.open(
            str(Path(trace_dir) / f"trace-worker-{os.getpid()}.jsonl"),
            append=True,
        )
        obs.set_tracer(
            Tracer(sink, context=obs.TraceContext.from_environment())
        )
    else:
        obs.set_tracer(Tracer(enabled=False))

    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_when_orphaned,
            args=(parent,),
            name="repro-orphan-watch",
            daemon=True,
        ).start()


def _exit_when_orphaned(parent) -> None:
    """Exit this process once its parent process ``parent`` has gone.

    A SIGKILLed parent never shuts its pool down, so its workers would
    block on the executor's call queue forever, and the resource tracker
    would keep the run's shared-memory segments until they were killed by
    hand (it unlinks only once every process sharing it has exited).  A
    ``fork`` or ``spawn`` worker sees the parent die as re-parenting; a
    ``forkserver`` worker (a child of the fork server) sees the parent's
    sentinel close, a pipe that under ``fork`` later siblings also hold.
    """
    ppid = os.getppid()
    while os.getppid() == ppid and parent.is_alive():
        time.sleep(_ORPHAN_POLL_SECONDS)
    os._exit(1)


def _peak_rss_bytes() -> float | None:
    """This process's lifetime peak RSS in bytes, or None if unavailable.

    ``getrusage().ru_maxrss`` is documented in kilobytes on Linux but is
    already bytes on macOS (so a blanket ``* 1024`` would inflate Darwin
    readings 1024×), and the ``resource`` module does not exist on
    Windows at all — there the observation is skipped rather than
    guessed.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return None
    try:
        ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except OSError:  # pragma: no cover - exotic POSIX without getrusage
        return None
    scale = 1 if sys.platform == "darwin" else 1024
    return float(ru_maxrss) * scale


def _note_worker_telemetry(
    metrics: "MetricSet",
    *,
    num_jobs: int,
    chunk_seconds: float,
    submitted_at: float | None,
) -> None:
    """Record the ``worker.*`` observations for one executed chunk.

    Queue wait is the gap between the parent stamping the submission
    (``time.monotonic`` — comparable across processes on Linux, unlike
    ``perf_counter``) and the worker starting the chunk.  RSS is this
    process's lifetime high-water mark from :func:`_peak_rss_bytes`,
    platform-scaled to bytes and skipped where unsupported; it is
    resampled per chunk so the merged histogram shows the pool's memory
    envelope over time.
    """
    metrics.observe("worker.chunk_jobs", num_jobs)
    metrics.observe("worker.chunk_seconds", chunk_seconds)
    if submitted_at is not None:
        metrics.observe(
            "worker.queue_wait_seconds",
            max(0.0, time.monotonic() - submitted_at),
        )
    rss_bytes = _peak_rss_bytes()
    if rss_bytes is not None:
        metrics.observe("worker.rss_bytes", rss_bytes)


def execute_chunk(
    problem,
    jobs: Sequence[tuple[Any, str, Any]],
    directive: tuple[str, float] | None = None,
    submitted_at: float | None = None,
    traceparent: str | None = None,
    *,
    in_process: bool = False,
) -> tuple[list[tuple], "CounterSet", "MetricSet"]:
    """Run one chunk of jobs through a private evaluator.

    ``jobs`` entries are ``(node, kind, payload)`` as
    :meth:`~repro.core.anonymity.FrequencyEvaluator.execute_job` takes
    them.  Returns the ``(key_codes, counts)`` pairs in job order plus
    this chunk's stats delta and metrics delta.

    ``submitted_at`` is the parent's ``time.monotonic`` reading at submit
    time, used for the ``worker.queue_wait_seconds`` observation.

    ``traceparent`` is the dispatching ``parallel.batch`` span's trace
    position: the chunk executes under a ``worker.chunk`` span parented
    there (pool threads have an empty span stack; the serial fallback
    passes None and inherits the caller's stack instead).  Span output
    never rides the chunk-result channel — the returned counter delta
    stays bit-identical whether or not tracing is on, preserving the
    ``frequency.*`` determinism contract.

    ``directive`` is a pre-drawn fault-injection order from the parent's
    :class:`~repro.resilience.faults.FaultPlan` (crash/stall before doing
    any work, or poison the payload after; ``in_process`` says a crash
    may kill this process).  A crashed or stalled-out chunk therefore
    never contributes a partial counter delta — the supervised retry
    re-executes the whole chunk, so merged ``frequency.*`` counters stay
    bit-identical to a fault-free run.
    """
    from repro import obs
    from repro.core.anonymity import FrequencyEvaluator
    from repro.core.stats import SearchStats
    from repro.resilience.faults import apply_worker_fault, poison_payload

    context = obs.TraceContext.from_traceparent(traceparent)
    with obs.span_from(context, "worker.chunk", jobs=len(jobs)):
        apply_worker_fault(directive, in_process=in_process)
        chunk_started = time.perf_counter()
        evaluator = FrequencyEvaluator(problem, SearchStats())
        out = []
        for node, kind, payload in jobs:
            frequency_set = evaluator.execute_job(node, kind, payload)
            out.append((frequency_set.key_codes, frequency_set.counts))
        _note_worker_telemetry(
            evaluator.stats.metrics,
            num_jobs=len(jobs),
            chunk_seconds=time.perf_counter() - chunk_started,
            submitted_at=submitted_at,
        )
    result = (out, evaluator.stats.counters, evaluator.stats.metrics)
    if directive is not None and directive[0] == "poison":
        result = poison_payload(result)
    return result


def run_chunk(
    jobs: Sequence[tuple[Any, str, Any]],
    directive: tuple[str, float] | None = None,
    submitted_at: float | None = None,
    traceparent: str | None = None,
) -> tuple[list[tuple], "CounterSet", "MetricSet"]:
    """:func:`execute_chunk` in a ``shards`` worker process.

    Its jobs are plain scans — a node and its plan's row ranges, read from
    the worker-resident problem — because the parent keeps every job that
    carries a frequency set.  The chunk's spans land in this worker's own
    trace file (see :func:`init_worker_shared`) before the result ships,
    so a worker killed between chunks loses no spans for chunks it
    completed.
    """
    from repro import obs

    # ra: RA003 -- read of the initializer-installed problem (see above);
    # never mutated after init_worker_shared, so results stay deterministic.
    problem = _PROBLEM
    if problem is None:
        raise RuntimeError("worker used before its pool initializer ran")
    result = execute_chunk(
        problem, jobs, directive, submitted_at, traceparent, in_process=True
    )
    obs.flush()
    return result
