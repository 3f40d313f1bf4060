"""The run protocol of the level-synchronous searches (DESIGN.md §7).

Incognito's loop over subset sizes, bottom-up breadth-first search and
Samarati's binary search each save their progress after every level and
can resume from it.  :class:`SearchRun` does what does not depend on the
search: the region defaults, the checkpoint header and file, loading and
replaying a snapshot, restoring counters, saving a level with the
counters and elapsed time, and the result's checkpoint details.  Each
search keeps only its own progress and how to rebuild it.
"""

from __future__ import annotations

import re
import time
from typing import Any, Sequence

from repro.core.anonymity import FrequencyEvaluator
from repro.core.fscache import FrequencySetCache, current_cache
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult, make_result
from repro.core.stats import SearchStats
from repro.lattice.node import LatticeNode
from repro.obs.counters import CounterSet
from repro.parallel import BatchMaterializer, ExecutionConfig, current_execution
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointStore,
    current_checkpoints,
    problem_fingerprint,
)


class SearchRun:
    """One run of a search: its checkpoint, clock, counters and result.

    The store is ``checkpoint``, or else a file in the
    :func:`~repro.resilience.use_checkpoints` directory named after the
    header: ``<algorithm>-k<k>[-s<budget>]-<fingerprint16>.ckpt.json``.
    Only with a store is the table hashed; with ``resume`` (or the
    region's resume flag) a snapshot whose header matches becomes
    :attr:`state`.  ``resumed_key`` names the result detail counting the
    levels taken from the snapshot; ``header_extra`` extends the header.
    """

    def __init__(
        self,
        problem: PreparedTable,
        k: int,
        *,
        kind: str,
        algorithm: str,
        resumed_key: str,
        max_suppression: int,
        execution: ExecutionConfig | None,
        cache: FrequencySetCache | None,
        checkpoint: CheckpointStore | None,
        resume: bool,
        **header_extra: Any,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.problem = problem
        self.k = k
        self.algorithm = algorithm
        self.max_suppression = max_suppression
        self.execution = (
            execution if execution is not None else current_execution()
        )
        self.cache = cache if cache is not None else current_cache()
        self.resumed_key = resumed_key
        self.stats = SearchStats()
        self.store = checkpoint
        self.header: dict[str, Any] = {}
        self.state: dict[str, Any] | None = None
        self._base_elapsed = 0.0

        directory, region_resume = current_checkpoints()
        if checkpoint is None:
            if directory is None:
                return
            resume = resume or region_resume
        self.header = {
            "format": CHECKPOINT_FORMAT,
            "kind": kind,
            "algorithm": algorithm,
            "k": k,
            "max_suppression": max_suppression,
            "fingerprint": problem_fingerprint(problem),
            **header_extra,
        }
        if checkpoint is None:
            assert directory is not None
            name = re.sub(r"[^A-Za-z0-9._-]+", "-", algorithm)
            budget = f"-s{max_suppression}" if max_suppression else ""
            fingerprint = self.header["fingerprint"][:16]
            checkpoint = CheckpointStore(
                directory / f"{name}-k{k}{budget}-{fingerprint}.ckpt.json"
            )
            self.store = checkpoint
        if resume:
            self.state = checkpoint.load_matching(self.header)
        if self.state is not None:
            self._base_elapsed = float(self.state.get("elapsed_seconds", 0.0))

    @property
    def completed(self) -> bool:
        """Whether the snapshot holds a finished search."""
        return self.state is not None and bool(self.state.get("completed"))

    def start(self) -> FrequencyEvaluator:
        """The run's evaluator; this attempt's clock starts here."""
        self._started = time.perf_counter()
        return FrequencyEvaluator(
            self.problem,
            self.stats,
            cache=self.cache,
            shard_rows=self.execution.shard_rows,
        )

    def restore_counters(self) -> None:
        """Continue from the snapshot's counters, if there is one."""
        if self.state is not None:
            self.stats.counters = CounterSet.from_snapshot(self.state["counters"])

    def pool(self) -> BatchMaterializer:
        """The run's batch materializer; close it, or use it in a ``with``."""
        return BatchMaterializer(self.problem, self.execution)

    def elapsed(self) -> float:
        """The snapshot's elapsed time plus this attempt's."""
        return self._base_elapsed + (time.perf_counter() - self._started)

    def save(self, **progress: Any) -> None:
        """Save one finished level's ``progress``; no-op without a store."""
        if self.store is not None:
            self.store.save(
                {
                    **self.header,
                    **progress,
                    "counters": self.stats.counters.snapshot(),
                    "elapsed_seconds": self.elapsed(),
                }
            )

    def finish(
        self, nodes: Sequence[LatticeNode], resumed: int, **details: Any
    ) -> AnonymizationResult:
        """The result, with checkpoint details when there is a store.

        For a completed snapshot it is the snapshot's result: its counters
        and elapsed time, with no table work and no saves.
        """
        if self.completed:
            self.restore_counters()
            self.stats.elapsed_seconds = self._base_elapsed
        else:
            self.stats.elapsed_seconds = self.elapsed()
        if self.store is not None:
            details[self.resumed_key] = resumed
            details["checkpoint_saves"] = 0 if self.completed else self.store.saves
        return make_result(
            self.algorithm,
            self.k,
            nodes,
            self.stats,
            max_suppression=self.max_suppression,
            **details,
        )
