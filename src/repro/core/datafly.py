"""The Datafly greedy heuristic (paper Section 6, Sweeney [17]).

Datafly is the classic pre-Incognito heuristic: repeatedly generalize the
quasi-identifier attribute with the most distinct values (one hierarchy
level at a time, full-domain) until the number of tuples in undersized
equivalence classes falls within the suppression threshold, then suppress
those outliers.  The result is guaranteed k-anonymous but carries *no*
minimality guarantee — included here as the related-work baseline and used
by the model-comparison example.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.anonymity import FrequencyEvaluator
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult, make_result
from repro.core.stats import SearchStats
from repro.lattice.node import LatticeNode


def datafly(
    problem: PreparedTable,
    k: int,
    *,
    max_suppression: int | None = None,
) -> AnonymizationResult:
    """Run the Datafly heuristic; returns a single-node result.

    ``max_suppression`` defaults to ``k`` outlier rows, a common reading of
    Datafly's "more than k tuples in undersized classes → keep
    generalizing; at most k → suppress them".
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if max_suppression is None:
        max_suppression = k
    from repro.parallel.config import current_execution

    stats = SearchStats()
    # No batches to parallelise: only the region's range width applies.
    evaluator = FrequencyEvaluator(
        problem, stats, shard_rows=current_execution().shard_rows
    )
    started = time.perf_counter()

    qi = problem.quasi_identifier
    node = problem.bottom_node()
    trace: list[tuple[LatticeNode, int]] = []
    while True:
        with obs.span("datafly.step", node=str(node)) as sp:
            frequency_set = evaluator.scan(node)
            outliers = frequency_set.rows_below(k)
            if sp:
                sp.set(outliers=outliers)
        trace.append((node, outliers))
        if evaluator.decide(node, frequency_set, k, max_suppression):
            break
        # Generalize the attribute with the most distinct values among
        # those that still have headroom in their hierarchies.
        candidates = [
            (attribute, level)
            for attribute, level in node.items()
            if level < problem.height(attribute)
        ]
        if not candidates:
            # Fully generalized and still over threshold: k exceeds the
            # table size minus the allowance; suppress everything over.
            break
        def distinct_values(item: tuple[str, int]) -> int:
            attribute, level = item
            return problem.hierarchy(attribute).cardinality(level)

        chosen, current_level = max(
            candidates, key=lambda item: (distinct_values(item), item[0])
        )
        node = node.with_level(chosen, current_level + 1)

    final_set = evaluator.scan(node)
    suppressed = final_set.rows_below(k)
    stats.elapsed_seconds = time.perf_counter() - started
    achieved = final_set.is_k_anonymous(k, max_suppression)
    return make_result(
        "datafly",
        k,
        [node] if achieved else [],
        stats,
        max_suppression=max_suppression if suppressed else 0,
        complete=False,
        suppressed=suppressed,
        trace=[(str(n), outliers) for n, outliers in trace],
    )
