"""Per-level parallel frequency-set materialisation, with supervision.

The search algorithms in :mod:`repro.core` are level-synchronous: all
unmarked nodes at one lattice (or candidate-graph) height are independent
— each needs a frequency set derived either from the base table or from a
set computed at a strictly lower height.  :class:`BatchMaterializer`
exploits exactly that independence: the algorithm hands it one level's
``(node, rollup-source)`` requests, and it materialises them serially, on
a thread pool, or on shard worker processes over shared memory (the
``shards`` mode), returning results in request order.  A shard worker
gets plain scans only; the parent runs the jobs that carry a frequency
set meanwhile, so no set is pickled.

Every table scan is one plan (:class:`~repro.core.anonymity.ScanPlan`):
the rows a remembered base does not cover, split into ranges of
``ExecutionConfig.shard_rows`` rows (one range when unset).  A plan runs
inside the job that holds it, in every mode:
:meth:`~repro.core.anonymity.FrequencyEvaluator.scan` loops over its
ranges and merges the partials and the base exactly
(:func:`repro.core.outofcore.merge_partials` — COUNT is distributive),
whether the job runs in the parent, on a pool thread, or on a ``shards``
worker that attaches the QI code arrays zero-copy (:mod:`repro.shard`).
Parallelism is across the jobs of a batch, never within one job.

Determinism contract (what makes ``--workers N`` safe to trust):

* *planning* (cache consultation, ``cache.*`` counters) happens in the
  parent before dispatch, via
  :meth:`~repro.core.anonymity.FrequencyEvaluator.resolve_job`;
* workers only *execute* scan/rollup plans, each into a private
  :class:`~repro.core.stats.SearchStats` delta;
* deltas and results are merged in submission order, and counter merging
  itself is associative/commutative (integer sums and maxima), so the
  merged ``frequency.*`` counters and the returned frequency sets are
  bit-identical to a serial run regardless of worker scheduling.

Only the ``parallel.*`` accounting (tasks, workers high-water,
merge_seconds) and wall-clock differ between modes.

Failure supervision (the ``repro.resilience`` tentpole) extends the
contract to *partial failure*: a dead worker, a stalled chunk, or a
corrupt result must never abort — or silently alter — a run.  Each
dispatched chunk is awaited with a per-chunk timeout and retried with
exponential backoff and deterministic jitter, bounded by
``ExecutionConfig.max_retries``; a chunk that exhausts its retries is
executed serially in the parent, which cannot fail.  Pool-level breakage
(``BrokenProcessPool``) walks a graceful-degradation ladder: the pool is
rebuilt once, then the run is demoted ``shards → threads → serial``.
Because plans are fixed in the parent and exactly one successful
execution per chunk is merged — crashed, timed-out, and poisoned
attempts contribute neither results nor counter deltas — retried and
demoted execution still yields bit-identical frequency sets and
``frequency.*`` counters; the failures themselves are accounted under
the new ``fault.*`` / ``retry.*`` namespaces.  Injected faults
(:class:`~repro.resilience.faults.FaultPlan`) exercise every rung of this
ladder deterministically; see ``tests/resilience``.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Executor, Future
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro import obs
from repro.core.anonymity import FrequencyEvaluator, FrequencySet
from repro.lattice.node import LatticeNode
from repro.obs.counters import CounterSet
from repro.obs.metrics import MetricSet
from repro.parallel import worker as worker_module
from repro.parallel.config import ExecutionConfig, current_execution
from repro.resilience.faults import InjectedWorkerCrash, PoisonedResultError

#: Degradation ladder, in demotion order.  Threads share the parent's
#: memory, so demoted shard jobs keep scanning the table zero-copy.
_LADDER = {"shards": "threads", "threads": "serial"}


def _split_chunks(items: list, pieces: int) -> list[list]:
    """Split ``items`` into at most ``pieces`` contiguous, non-empty runs.

    An empty ``items`` yields no chunks (rather than dividing by zero) —
    the batch path can reach this with every request resolved from cache.
    """
    if not items:
        return []
    pieces = min(pieces, len(items))
    base, extra = divmod(len(items), pieces)
    chunks = []
    start = 0
    for index in range(pieces):
        stop = start + base + (1 if index < extra else 0)
        chunks.append(items[start:stop])
        start = stop
    return chunks


def _jobs(chunk) -> list[tuple]:
    """A chunk's ``(node, kind, payload)`` jobs, without their request indices."""
    return [(node, kind, payload) for _, node, kind, payload in chunk]


def _ships_to_a_process(job) -> bool:
    """Whether a pending job goes to a ``shards`` worker: a plain scan.

    A plain scan is a node and its plan's row ranges, which the worker
    reads from shared memory.  Any other job carries a frequency set — a
    rollup's source, a delta scan's remembered base — that would be
    pickled whole into the worker, so the parent runs it itself.
    """
    _, _, kind, payload = job
    return kind == "scan" and payload.base is None


def _validate_payload(chunk, payload) -> tuple[list, CounterSet, MetricSet]:
    """Shape-check one chunk result; raises PoisonedResultError when corrupt.

    Workers are untrusted under the failure model: a result is only merged
    if it is structurally coherent — a ``(results, counters, metrics)``
    triple with one well-formed ``(key_codes, counts)`` pair per job and
    non-negative counts.  Anything else is treated exactly like a crashed
    worker: discarded and re-executed.
    """
    try:
        results, delta, metrics = payload
    except (TypeError, ValueError):
        raise PoisonedResultError(
            "chunk payload is not a (results, counters, metrics) triple"
        )
    if not isinstance(delta, CounterSet):
        raise PoisonedResultError(
            f"chunk stats delta is {type(delta).__name__}, not CounterSet"
        )
    if not isinstance(metrics, MetricSet):
        raise PoisonedResultError(
            f"chunk metrics delta is {type(metrics).__name__}, not MetricSet"
        )
    if not isinstance(results, list) or len(results) != len(chunk):
        got = len(results) if isinstance(results, list) else type(results).__name__
        raise PoisonedResultError(
            f"chunk returned {got} results for {len(chunk)} jobs"
        )
    for item in results:
        try:
            key_codes, counts = item
        except (TypeError, ValueError):
            raise PoisonedResultError("malformed frequency-set payload")
        if (
            getattr(key_codes, "ndim", None) != 2
            or getattr(counts, "ndim", None) != 1
            or key_codes.shape[0] != counts.shape[0]
        ):
            raise PoisonedResultError("frequency-set arrays are inconsistent")
        if counts.size and int(counts.min()) < 0:
            raise PoisonedResultError("frequency set carries negative counts")
    return results, delta, metrics


@dataclass
class _ChunkState:
    """Supervision bookkeeping for one dispatched chunk."""

    chunk: list
    task_id: int
    attempt: int = 0
    future: Future | None = field(default=None, repr=False)
    done: bool = False
    serial_fallback: bool = False


class BatchMaterializer:
    """Materialises batches of frequency-set requests for one problem.

    One instance spans a whole algorithm run — the underlying executor is
    created lazily on the first parallel batch (so serial runs never pay
    for a pool) and reused across levels and Incognito iterations.  Use as
    a context manager, or call :meth:`close` when the run ends.

    The instance also carries the run's degradation state: the current
    ladder rung (which may sit below ``execution.mode`` after failures),
    whether the one pool rebuild has been spent, and the last shutdown
    error (:attr:`shutdown_error` — recorded, never raised, so a broken
    pool at exit cannot mask the algorithm's own exception).
    """

    def __init__(
        self, problem, execution: ExecutionConfig | None = None
    ) -> None:
        self.problem = problem
        self.execution = (
            execution if execution is not None else current_execution()
        )
        self._executor: Executor | None = None
        #: Current degradation-ladder rung; starts at the configured mode.
        self._mode = self.execution.mode
        self._pool_rebuilt = False
        self._task_counter = 0
        #: Shared-memory store backing the ``shards`` mode, if any.  Owned
        #: (created here, closed by :meth:`close`) unless adopted from a
        #: shm-backed problem (``problem._shm_store``), whose builder owns
        #: the unlink.
        self._shm_store = None
        self._owns_store = False
        #: Last error swallowed while shutting an executor down.
        self.shutdown_error: BaseException | None = None
        #: The active ``parallel.batch`` span's trace position, shipped
        #: with every dispatched chunk so ``worker.chunk`` spans (thread
        #: or process side) parent to the batch that dispatched them.
        self._batch_traceparent: str | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The currently effective execution mode (post-degradation)."""
        return self._mode

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self._mode == "threads":
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    max_workers=self.execution.workers,
                    thread_name_prefix="repro-fs",
                )
            else:
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(
                    max_workers=self.execution.workers,
                    initializer=worker_module.init_worker_shared,
                    initargs=(self._ensure_store().handle,),
                )
        return self._executor

    def _ensure_store(self):
        """The shared-memory store for shard workers, adopting if possible.

        A problem built by a streaming shm builder already owns segments
        (``problem._shm_store``); re-copying it would double peak RSS, so
        that store is adopted and its lifecycle left to its builder.  For
        ordinary in-memory problems a store is created here — one copy of
        the QI code arrays, total, shared by every worker — and closed by
        :meth:`close`.
        """
        if self._shm_store is None:
            from repro.shard.shm import SharedTableStore

            adopted = getattr(self.problem, "_shm_store", None)
            if adopted is not None and not adopted.closed:
                self._shm_store = adopted
                self._owns_store = False
            else:
                self._shm_store = SharedTableStore.from_problem(self.problem)
                self._owns_store = True
        return self._shm_store

    def _drop_executor(self, wait: bool = False) -> None:
        """Shut the current executor down, recording (not raising) errors.

        ``cancel_futures=True`` keeps a broken process pool from hanging
        the shutdown on work that will never run; any shutdown exception
        is stored on :attr:`shutdown_error` so it cannot mask whatever
        the algorithm itself was raising.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        try:
            executor.shutdown(wait=wait, cancel_futures=True)
        except BaseException as error:  # noqa: BLE001 - recorded, not lost
            self.shutdown_error = error

    def close(self) -> None:
        # Workers unmap on exit; only then may the owning side unlink.
        self._drop_executor(wait=True)
        store, self._shm_store = self._shm_store, None
        owned, self._owns_store = self._owns_store, False
        if store is not None and owned:
            try:
                store.close()
            except BaseException as error:  # noqa: BLE001 - recorded, not lost
                self.shutdown_error = error

    def __enter__(self) -> "BatchMaterializer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Swallow-and-record: a failed shutdown must never shadow the
        # algorithm exception travelling through this frame.
        self.close()

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def materialize_batch(
        self,
        evaluator: FrequencyEvaluator,
        requests: Sequence[tuple[LatticeNode, FrequencySet | None]],
    ) -> list[FrequencySet]:
        """Frequency sets for ``requests``, in request order.

        Every scan splits at the evaluator's ``shard_rows`` (one range when
        unset), and whichever job holds the plan loops over its ranges.
        Serial configs and lone requests run in the parent, one
        :meth:`FrequencyEvaluator.materialize` call per request, so the
        serial path has no parallel machinery in the loop.  A batch
        resolves every request first and dispatches the whole ``(node,
        kind, payload)`` jobs in chunks.  Results are admitted to the
        caches in request order.
        """
        if not self.execution.is_parallel or len(requests) < 2:
            return [
                evaluator.materialize(node, source)
                for node, source in requests
            ]

        results: list[Any] = [None] * len(requests)
        pending: list[tuple] = []  # (index, node, kind, payload)
        for index, (node, source) in enumerate(requests):
            kind, payload = evaluator.resolve_job(node, source)
            if kind == "use":
                results[index] = payload
            else:
                pending.append((index, node, kind, payload))
        if len(pending) <= 1:
            # Nothing (or a single job) survived the cache: dispatching to
            # a pool would cost more than the work.
            for index, node, kind, payload in pending:
                results[index] = evaluator.execute_job(node, kind, payload)
        else:
            self._dispatch_batch(evaluator, pending, results)
        for index, _, _, _ in pending:
            evaluator.cache_put(results[index])
        return results

    def _dispatch_batch(
        self, evaluator: FrequencyEvaluator, pending: list, results: list
    ) -> None:
        """Run ``pending`` on the pool; fill ``results`` in request order.

        Under ``shards`` the parent keeps every job that is not a plain
        scan (see :func:`_ships_to_a_process`) and runs those as one chunk
        of its own while the workers scan; its payload merges last.
        """
        in_parent: list = []
        if self._mode == "shards":
            in_parent = [job for job in pending if not _ships_to_a_process(job)]
            pending = [job for job in pending if _ships_to_a_process(job)]
        chunks = _split_chunks(pending, self.execution.workers)
        with obs.span(
            "parallel.batch",
            mode=self._mode,
            jobs=len(pending) + len(in_parent),
            tasks=len(chunks),
            workers=self.execution.workers,
        ) as sp:
            self._batch_traceparent = sp.traceparent() if sp else None
            payloads = self._dispatch_supervised(evaluator, chunks, in_parent)
            merge_seconds = 0.0
            merged = [*chunks, in_parent] if in_parent else chunks
            for chunk, (chunk_results, delta, metrics_delta) in zip(
                merged, payloads
            ):
                merge_started = time.perf_counter()
                evaluator.stats.counters += delta
                evaluator.stats.metrics += metrics_delta
                for (index, node, _, _), item in zip(chunk, chunk_results):
                    results[index] = FrequencySet(node, *item, self.problem)
                merge_seconds += time.perf_counter() - merge_started
            if sp:
                sp.set(final_mode=self._mode)
        stats = evaluator.stats
        stats.parallel_tasks += len(chunks)
        stats.parallel_workers = self.execution.workers
        stats.parallel_merge_seconds += merge_seconds

    # ------------------------------------------------------------------
    # supervised dispatch (retry / degrade ladder)
    # ------------------------------------------------------------------
    def _next_task_id(self) -> int:
        self._task_counter += 1
        return self._task_counter

    def _dispatch_supervised(
        self,
        evaluator: FrequencyEvaluator,
        chunks: list[list],
        in_parent: list,
    ) -> list[tuple[list, CounterSet, MetricSet]]:
        """Execute every chunk to completion, in order, surviving failures.

        The ``in_parent`` jobs run here once the chunks are submitted,
        never injected, and their payload (if any) comes last.
        """
        states = [
            _ChunkState(chunk=chunk, task_id=self._next_task_id())
            for chunk in chunks
        ]
        for state in states:
            self._try_submit(state, evaluator)
        own = (
            [worker_module.execute_chunk(self.problem, _jobs(in_parent))]
            if in_parent
            else []
        )
        payloads = []
        for state in states:
            payloads.append(self._await_state(state, states, evaluator))
            state.done = True
        return payloads + own

    def _try_submit(self, state: _ChunkState, evaluator) -> None:
        """Submit one chunk on the current rung; broken pools leave
        ``state.future`` unset for the await loop to recover."""
        try:
            self._submit_state(state, evaluator)
        except BrokenExecutor:
            evaluator.stats.counters.incr("fault.crashes")
            state.future = None

    def _submit_state(self, state: _ChunkState, evaluator) -> None:
        state.future = None
        if self._mode == "serial" or state.serial_fallback:
            return  # executed inline (and never injected) at await time
        directive = None
        plan = self.execution.faults
        counters = evaluator.stats.counters
        if plan is not None and plan.any_faults:
            kind = plan.draw(state.task_id, state.attempt)
            if kind == "memory":
                # Parent-side signal: demote the cache to scan-through.
                counters.incr("fault.injected.memory_pressure")
                counters.incr("fault.memory_pressure")
                cache = evaluator.cache
                if cache is not None and not cache.degraded:
                    cache.degrade()
            elif kind is not None:
                counters.incr(f"fault.injected.{kind}")
                param = {
                    "crash": 0.0,
                    "poison": 0.0,
                    "timeout": plan.hold_seconds,
                    "slow": plan.slow_seconds,
                }[kind]
                directive = (kind, param)
        executor = self._ensure_executor()
        # Submission timestamp for the worker's queue-wait observation:
        # time.monotonic is comparable across processes on this host,
        # unlike perf_counter, whose epoch is per-process.
        submitted_at = time.monotonic()
        if self._mode == "threads":
            state.future = executor.submit(
                worker_module.execute_chunk,
                self.problem,
                _jobs(state.chunk),
                directive,
                submitted_at,
                self._batch_traceparent,
            )
        else:
            state.future = executor.submit(
                worker_module.run_chunk,
                _jobs(state.chunk),
                directive,
                submitted_at,
                self._batch_traceparent,
            )

    def _await_state(
        self, state: _ChunkState, states: list[_ChunkState], evaluator
    ) -> tuple[list, CounterSet, MetricSet]:
        """One chunk's successful ``(results, counters, metrics)`` triple.

        Loops submit → await → classify-failure → retry until the chunk
        succeeds.  Termination is guaranteed: every rung either succeeds
        or pushes the chunk (or the whole run) down the ladder, and the
        bottom rung — serial in-parent execution with injection disabled —
        cannot fail without raising the underlying real error.

        The successful attempt's await time lands in the parent's
        ``latency.chunk_dispatch_seconds`` histogram (earlier chunks in a
        level absorb most of the pool's concurrency, later ones return
        nearly instantly — the distribution, not the total, is the story).
        """
        counters = evaluator.stats.counters
        metrics = evaluator.stats.metrics
        while True:
            if self._mode == "serial" or state.serial_fallback:
                # The bottom rung: in the parent, through a private
                # evaluator whose delta merges like any worker's.
                return _validate_payload(
                    state.chunk,
                    worker_module.execute_chunk(
                        self.problem, _jobs(state.chunk)
                    ),
                )
            future = state.future
            if future is None:
                self._try_submit(state, evaluator)
                future = state.future
                if future is None:
                    # Submission itself hit a dead pool: recover, re-loop.
                    self._recover_pool(states, evaluator)
                    continue
            await_started = time.perf_counter()
            try:
                payload = future.result(
                    timeout=self.execution.effective_timeout
                )
                validated = _validate_payload(state.chunk, payload)
                metrics.observe(
                    "latency.chunk_dispatch_seconds",
                    time.perf_counter() - await_started,
                )
                return validated
            except FuturesTimeout:
                counters.incr("fault.timeouts")
                state.future = None  # abandon the stalled worker's future
                self._note_retry(state, evaluator)
            except BrokenExecutor:
                counters.incr("fault.crashes")
                state.future = None
                self._recover_pool(states, evaluator)
                self._note_retry(state, evaluator)
            except InjectedWorkerCrash:
                counters.incr("fault.crashes")
                state.future = None
                self._note_retry(state, evaluator)
            except PoisonedResultError:
                counters.incr("fault.poisoned")
                state.future = None
                self._note_retry(state, evaluator)
            except Exception:
                # Unexpected worker error: retry like a fault.  A genuine,
                # deterministic bug eventually exhausts retries and
                # re-raises from the serial fallback, where the real
                # traceback is visible.
                counters.incr("fault.errors")
                state.future = None
                self._note_retry(state, evaluator)

    def _note_retry(self, state: _ChunkState, evaluator) -> None:
        """Account one failed attempt; back off or fall back to serial."""
        counters = evaluator.stats.counters
        # A fault was just observed: push any buffered trace output to disk
        # before retrying, in case this run is about to die entirely.
        obs.flush()
        if state.attempt == 0:
            counters.incr("retry.chunks")
        state.attempt += 1
        counters.incr("retry.attempts")
        if state.attempt > self.execution.max_retries:
            state.serial_fallback = True
            counters.incr("retry.serial_fallbacks")
            return
        base = self.execution.backoff_base
        if base <= 0:
            return
        delay = min(
            self.execution.backoff_cap, base * (2 ** (state.attempt - 1))
        )
        plan = self.execution.faults
        if plan is not None:
            delay *= plan.jitter(state.task_id, state.attempt)
        counters.incr("retry.backoff_seconds", delay)
        evaluator.stats.metrics.observe(
            "latency.chunk_retry_wait_seconds", delay
        )
        time.sleep(delay)

    def _recover_pool(
        self, states: list[_ChunkState], evaluator
    ) -> None:
        """Walk the ladder after pool breakage and re-dispatch pending work.

        The first breakage of the shard process pool earns one rebuild
        (``fault.pool_rebuilds``); any further breakage — or breakage of a
        thread pool — demotes the whole run one rung
        (``fault.demotions``).  Chunks whose futures died with the pool
        are resubmitted on the new rung; chunks already consumed are
        untouched, so each chunk still contributes exactly one merged
        result.
        """
        counters = evaluator.stats.counters
        self._drop_executor(wait=False)
        if self._mode == "shards" and not self._pool_rebuilt:
            self._pool_rebuilt = True
            counters.incr("fault.pool_rebuilds")
        elif self._mode in _LADDER:
            self._mode = _LADDER[self._mode]
            counters.incr("fault.demotions")
        if self._mode == "serial":
            return  # pending chunks run inline when awaited
        for other in states:
            if not other.done and other.future is not None:
                self._try_submit(other, evaluator)
