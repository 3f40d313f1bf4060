"""Out-of-core frequency-set computation — the paper's second future-work
item (§7).

    "It is also important to perform a more extensive evaluation of the
    scalability of Incognito and previous algorithms in the case where
    the original database or the intermediate frequency tables do not
    fit in main memory."

This module makes the scan path block-oriented so the engine's peak
working set is bounded by a chunk of rows plus the (much smaller) running
frequency set, instead of by materialised whole-column generalization
arrays:

* :func:`compute_frequency_set_chunked` — evaluate a lattice node by
  scanning the table in ``chunk_rows`` blocks and merging partial counts
  (the classic hash-aggregation-with-spill pattern, minus the spill since
  merged frequency sets are the small side).
* :class:`ChunkedEvaluator` — a drop-in
  :class:`~repro.core.anonymity.FrequencyEvaluator` whose scans are
  chunked, so every algorithm in :mod:`repro.core` runs out-of-core
  unchanged (pass it via :func:`chunked_incognito`).

Merging partial frequency sets is correct because COUNT is distributive —
the same property the rollup proof uses.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.anonymity import (
    FrequencyEvaluator,
    FrequencySet,
    compute_frequency_set_range,
)
from repro.core.incognito import run_incognito
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult
from repro.core.stats import SearchStats
from repro.lattice.node import LatticeNode
from repro.relational.groupby import group_by_codes


#: How many partial (keys, counts) pairs may accumulate before they are
#: folded into one.  Bounds the peak working set of a chunked scan at
#: fan-in × (running merged set + one chunk's groups) instead of letting
#: every chunk's partial live until the end of the scan.
MERGE_FAN_IN = 8


def merge_partials(
    partial_keys: list[np.ndarray],
    partial_counts: list[np.ndarray],
    radices: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-chunk/per-shard (keys, counts) pairs into one grouped result.

    COUNT is distributive, so summing the partial counts per group key is
    exact; and because the merge orders groups by the same mixed-radix key
    as a scan (:func:`~repro.relational.groupby.group_by_codes` is the
    kernel of both), the merged result is *bit-identical* to a single
    whole-table scan regardless of how the input was partitioned or in
    which order partials were folded.  Shard-parallel evaluation
    (:mod:`repro.shard`) relies on this to merge worker partials exactly.
    """
    all_keys = np.concatenate(partial_keys, axis=0)
    all_counts = np.concatenate(partial_counts)
    columns = [all_keys[:, position] for position in range(all_keys.shape[1])]
    return group_by_codes(columns, radices, weights=all_counts)


def compute_frequency_set_chunked(
    problem: PreparedTable,
    node: LatticeNode,
    *,
    chunk_rows: int = 65_536,
) -> FrequencySet:
    """Frequency set of T at ``node``, scanning ``chunk_rows`` at a time.

    Produces exactly the same result as
    :func:`repro.core.anonymity.compute_frequency_set`; peak extra memory
    is one chunk's mixed-radix keys plus at most
    :data:`MERGE_FAN_IN` pending partial results (partials are folded
    incrementally rather than all retained until the end of the scan).
    """
    if chunk_rows <= 0:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    num_rows = problem.num_rows
    if num_rows == 0:
        return compute_frequency_set_range(problem, node, 0, 0)
    radices = [
        problem.hierarchy(attribute).cardinality(level)
        for attribute, level in node.items()
    ]
    partial_keys: list[np.ndarray] = []
    partial_counts: list[np.ndarray] = []
    for start in range(0, num_rows, chunk_rows):
        stop = min(start + chunk_rows, num_rows)
        piece = compute_frequency_set_range(problem, node, start, stop)
        partial_keys.append(piece.key_codes)
        partial_counts.append(piece.counts)
        if len(partial_keys) >= MERGE_FAN_IN:
            merged = merge_partials(partial_keys, partial_counts, radices)
            partial_keys = [merged[0]]
            partial_counts = [merged[1]]

    if len(partial_keys) == 1:
        return FrequencySet(node, partial_keys[0], partial_counts[0], problem)
    keys, counts = merge_partials(partial_keys, partial_counts, radices)
    return FrequencySet(node, keys, counts, problem)


class ChunkedEvaluator(FrequencyEvaluator):
    """A FrequencyEvaluator whose table scans are block-oriented."""

    def __init__(
        self,
        problem: PreparedTable,
        stats: SearchStats | None = None,
        *,
        chunk_rows: int = 65_536,
    ) -> None:
        super().__init__(problem, stats)
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        self.chunk_rows = chunk_rows

    def scan(self, node: LatticeNode) -> FrequencySet:
        with obs.span("scan", kind="chunked", chunk_rows=self.chunk_rows) as sp:
            result = compute_frequency_set_chunked(
                self.problem, node, chunk_rows=self.chunk_rows
            )
            if sp:
                sp.set(node=str(node), groups=result.num_groups)
        self.stats.table_scans += 1
        self.stats.note_frequency_set(result.num_groups)
        return result


def chunked_incognito(
    problem: PreparedTable,
    k: int,
    *,
    max_suppression: int = 0,
    chunk_rows: int = 65_536,
) -> AnonymizationResult:
    """Basic Incognito with bounded-memory (chunked) table scans.

    Same answers as :func:`repro.core.incognito.basic_incognito`; wall
    clock pays a small per-chunk overhead, which
    ``benchmarks/test_ablation_materialized.py`` quantifies.
    """
    from repro.core import incognito as incognito_module

    # run_incognito builds its own evaluator; routing all root scans
    # through the chunked path only needs a provider override.
    class _ChunkedScanProvider(incognito_module.RootProvider):
        def frequency_set(self, evaluator, node):
            with obs.span("scan", kind="chunked", chunk_rows=chunk_rows) as sp:
                result = compute_frequency_set_chunked(
                    problem, node, chunk_rows=chunk_rows
                )
                if sp:
                    sp.set(node=str(node), groups=result.num_groups)
            evaluator.stats.table_scans += 1
            evaluator.stats.note_frequency_set(result.num_groups)
            return result

    return run_incognito(
        problem,
        k,
        max_suppression=max_suppression,
        provider_factory=lambda p, e: _ChunkedScanProvider(),
        algorithm="chunked-incognito",
    )
