"""Out-of-core frequency-set computation — the paper's second future-work
item (§7).

    "It is also important to perform a more extensive evaluation of the
    scalability of Incognito and previous algorithms in the case where
    the original database or the intermediate frequency tables do not
    fit in main memory."

Every table scan is a plan of row ranges
(:class:`~repro.core.anonymity.ScanPlan`), so bounding a scan's working
set only takes narrow ranges: ``ExecutionConfig(shard_rows=w)`` splits
every scan every ``w`` rows, and
:meth:`~repro.core.anonymity.FrequencyEvaluator.scan` runs the ranges in a
loop that folds every :data:`MERGE_FAN_IN` partials, in every execution
mode, inside whichever job holds the scan (in the parent, a pool thread or
a shard worker).  Peak extra memory per running job is then one range's
keys plus at most that many partial frequency sets (the classic
hash-aggregation-with-spill pattern, minus the spill, since merged
frequency sets are the small side), instead of whole-column key arrays.
:func:`chunked_incognito` is Basic Incognito run that way.

Merging partial frequency sets is correct because COUNT is distributive —
the same property the rollup proof uses.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.incognito import run_incognito
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult
from repro.relational.groupby import group_by_codes


#: How many partial (keys, counts) pairs may accumulate before they are
#: folded into one.  Bounds the peak working set of a scan run as a loop
#: of ranges at fan-in × (running merged set + one range's groups) instead
#: of letting every range's partial live until the end of the scan.
MERGE_FAN_IN = 8


def merge_partials(
    partial_keys: list[np.ndarray],
    partial_counts: list[np.ndarray],
    radices: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-range (keys, counts) pairs into one grouped result.

    COUNT is distributive, so summing the partial counts per group key is
    exact; and because the merge orders groups by the same mixed-radix key
    as a scan (:func:`~repro.relational.groupby.group_by_codes` is the
    kernel of both), the merged result is *bit-identical* to a single
    whole-table scan regardless of how the input was partitioned or in
    which order partials were folded.  Every scan plan of more than one
    partial — ranges, a remembered base — finishes through this merge.
    """
    all_keys = np.concatenate(partial_keys, axis=0)
    all_counts = np.concatenate(partial_counts)
    columns = [all_keys[:, position] for position in range(all_keys.shape[1])]
    return group_by_codes(columns, radices, weights=all_counts)


def chunked_incognito(
    problem: PreparedTable,
    k: int,
    *,
    max_suppression: int = 0,
    chunk_rows: int = 65_536,
) -> AnonymizationResult:
    """Basic Incognito with bounded-memory scans of ``chunk_rows`` rows.

    Runs under the region's execution config
    (:func:`repro.parallel.use_execution`, serial by default) with
    ``shard_rows=chunk_rows``.  Same answers as
    :func:`repro.core.incognito.basic_incognito`; wall clock pays a small
    per-range overhead, which ``benchmarks/test_ablation_materialized.py``
    quantifies.
    """
    from repro.parallel import current_execution

    return run_incognito(
        problem,
        k,
        max_suppression=max_suppression,
        algorithm="chunked-incognito",
        execution=replace(current_execution(), shard_rows=chunk_rows),
    )
