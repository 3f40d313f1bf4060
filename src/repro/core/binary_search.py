"""Samarati's binary search on generalization height (paper Section 2.2).

Samarati [14] observed that, under the height-based definition of
minimality, if no generalization of height h satisfies k-anonymity then no
generalization of any lower height does.  The algorithm therefore binary
searches the height range of the full lattice: check the heights' midpoint;
if some node at that height is k-anonymous, recurse into the lower half,
otherwise the upper half.  It finds *one* minimal-height k-anonymous
full-domain generalization — unlike Incognito it is not complete, and its
notion of minimality is fixed.

Following the paper's experimental setup, each node check is a group-by
query over the table (the distance-vector-matrix alternative described by
Samarati was found "prohibitively expensive for large databases").  Within
a height, nodes are checked in deterministic order and the scan of a height
stops at the first anonymous node.

Two of this module's costs respond to the shared infrastructure:

* a :class:`~repro.core.fscache.FrequencySetCache` turns repeat probes
  into exact hits and — after any *failed* probe, which evaluates an
  entire height — later higher probes into cached-ancestor rollups
  instead of fresh table scans (every node above a fully-evaluated height
  has a cached ancestor there);
* a parallel :class:`~repro.parallel.BatchMaterializer` evaluates probe
  heights in blocks of ``workers`` nodes.  The found node is identical to
  the serial run (decisions stay in sorted order), but up to
  ``workers - 1`` nodes after the first anonymous one in its block are
  materialised speculatively, so a *parallel* binary search may record a
  few more ``frequency.table_scans`` than a serial one — the one
  documented counter divergence in the parallel subsystem (serial runs
  are always exactly the classic algorithm).
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.anonymity import FrequencyEvaluator
from repro.core.fscache import FrequencySetCache
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult
from repro.core.run import SearchRun
from repro.lattice.node import LatticeNode
from repro.parallel import BatchMaterializer, ExecutionConfig
from repro.resilience.checkpoint import (
    CheckpointStore,
    node_from_json,
    node_to_json,
)


def _first_anonymous_at_height(
    evaluator: FrequencyEvaluator,
    lattice,
    height: int,
    k: int,
    max_suppression: int,
    pool: BatchMaterializer,
) -> LatticeNode | None:
    probe_started = time.perf_counter()
    with obs.span("binary_search.probe", height=height) as sp:
        nodes = sorted(
            lattice.nodes_at_height(height), key=LatticeNode.sort_key
        )
        block_size = max(1, pool.execution.workers)
        for start in range(0, len(nodes), block_size):
            block = nodes[start : start + block_size]
            frequency_sets = pool.materialize_batch(
                evaluator, [(node, None) for node in block]
            )
            for node, frequency_set in zip(block, frequency_sets):
                if evaluator.decide(node, frequency_set, k, max_suppression):
                    if sp:
                        sp.set(found=str(node))
                    evaluator.stats.metrics.observe(
                        "latency.probe_seconds",
                        time.perf_counter() - probe_started,
                    )
                    return node
        if sp:
            sp.set(found=None)
    evaluator.stats.metrics.observe(
        "latency.probe_seconds", time.perf_counter() - probe_started
    )
    return None


def samarati_binary_search(
    problem: PreparedTable,
    k: int,
    *,
    max_suppression: int = 0,
    execution: ExecutionConfig | None = None,
    cache: FrequencySetCache | None = None,
    checkpoint: CheckpointStore | None = None,
    resume: bool = False,
) -> AnonymizationResult:
    """Find one minimal-height k-anonymous generalization by binary search.

    Returns a result with a single node (``complete=False``), or an empty
    node list when even the top of the lattice is not k-anonymous (k larger
    than the table, with no suppression allowance).

    Checkpointing is per *probe* (one fully-evaluated height): each probe's
    height and outcome is persisted with the run's counters, and a resumed
    run replays recorded outcomes through the bisection logic — zero table
    work — before probing live again.
    """
    run = SearchRun(
        problem,
        k,
        kind="binary-search",
        algorithm="binary-search",
        resumed_key="resumed_probes",
        max_suppression=max_suppression,
        execution=execution,
        cache=cache,
        checkpoint=checkpoint,
        resume=resume,
    )
    state = run.state
    if run.completed:
        best_json = state.get("best")
        return run.finish(
            [node_from_json(best_json)] if best_json is not None else [],
            len(state["probes"]),
            complete=False,
            probes=_outcomes(state["probes"]),
        )

    lattice = problem.lattice()
    evaluator = run.start()
    run.restore_counters()
    run.stats.nodes_generated = lattice.size

    #: Each probe as {"h": height, "f": found-node JSON or None}.
    record: list[dict] = list(state["probes"]) if state is not None else []
    #: Unconsumed recorded probes, replayed in order instead of evaluated.
    replay = list(record)
    replayed = 0
    pool = run.pool()

    def probe(height: int) -> LatticeNode | None:
        nonlocal replayed
        if replay and int(replay[0]["h"]) == height:
            item = replay.pop(0)
            replayed += 1
            return (
                node_from_json(item["f"]) if item["f"] is not None else None
            )
        found = _first_anonymous_at_height(
            evaluator, lattice, height, k, max_suppression, pool
        )
        record.append(
            {
                "h": height,
                "f": node_to_json(found) if found is not None else None,
            }
        )
        run.save(completed=False, probes=record)
        return found

    low, high = 0, lattice.max_height
    best: LatticeNode | None = None
    with pool:
        while low < high:
            middle = (low + high) // 2
            found = probe(middle)
            if found is not None:
                best = found
                high = middle
            else:
                low = middle + 1
        if best is None or best.height != low:
            # Haven't actually verified height ``low`` yet (or only a
            # higher height succeeded): check it, falling back to the
            # recorded best.
            found = probe(low)
            if found is not None:
                best = found

    run.save(
        completed=True,
        probes=record,
        best=node_to_json(best) if best is not None else None,
    )
    return run.finish(
        [best] if best is not None else [],
        replayed,
        complete=False,
        probes=_outcomes(record),
    )


def _outcomes(probes: list[dict]) -> list[tuple[int, bool]]:
    """``(height, found)`` per recorded probe: the result's ``probes``."""
    return [(int(p["h"]), p["f"] is not None) for p in probes]
