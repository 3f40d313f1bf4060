"""Bottom-up breadth-first lattice search (paper Section 2.2).

The naive complete algorithm: walk the *full* multi-attribute generalization
lattice of the whole quasi-identifier from the bottom, by height, checking
k-anonymity at every node not already implied anonymous by the
generalization property.  Run exhaustively it is sound and complete, like
Incognito, but it never benefits from subset (a-priori) pruning, so it
evaluates far more nodes (the Section 4.2.1 table).

Two variants, matching the paper's experimental lines:

* ``rollup=False`` — every checked node's frequency set is computed by
  scanning the base table;
* ``rollup=True`` — a checked node's frequency set is rolled up from a
  failed direct specialization's cached set (always available: an unmarked
  non-bottom node has only failed specializations, or it would be marked).

Like Incognito's inner search, the walk is level-synchronous — marks and
rollup sources only flow upward — so each height's unmarked nodes form one
independent batch handed to a :class:`~repro.parallel.BatchMaterializer`
(serial, threads, or shards; identical results and structural counters
in every mode).  An attached
:class:`~repro.core.fscache.FrequencySetCache` serves repeat nodes across
runs and seeds other algorithms (this is the cross-algorithm reuse the
bench sweeps exercise).
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.anonymity import FrequencySet
from repro.core.fscache import FrequencySetCache
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult
from repro.core.run import SearchRun
from repro.lattice.node import LatticeNode
from repro.parallel import ExecutionConfig
from repro.resilience.checkpoint import (
    CheckpointStore,
    frequency_set_from_json,
    frequency_set_to_json,
    nodes_from_json,
    nodes_to_json,
)


def bottom_up_search(
    problem: PreparedTable,
    k: int,
    *,
    rollup: bool = True,
    max_suppression: int = 0,
    execution: ExecutionConfig | None = None,
    cache: FrequencySetCache | None = None,
    checkpoint: CheckpointStore | None = None,
    resume: bool = False,
) -> AnonymizationResult:
    """Exhaustive bottom-up BFS; returns all k-anonymous generalizations.

    With a checkpoint store the run persists its progress after every
    completed lattice height: the anonymous/marked sets, the restored
    run's counters, and — for the rollup variant — the boundary frequency
    sets (failed nodes of the just-finished height) the next height rolls
    up from.  Resuming restarts at the first unfinished height with zero
    re-scanning of completed levels.
    """
    run = SearchRun(
        problem,
        k,
        kind="bottom-up",
        algorithm="bottom-up" + ("-rollup" if rollup else ""),
        resumed_key="resumed_heights",
        max_suppression=max_suppression,
        execution=execution,
        cache=cache,
        checkpoint=checkpoint,
        resume=resume,
    )
    state = run.state
    if run.completed:
        return run.finish(
            nodes_from_json(state["anonymous"]), int(state["height_done"]) + 1
        )

    lattice = problem.lattice()
    evaluator = run.start()
    run.restore_counters()
    stats = run.stats

    anonymous: set[LatticeNode] = set()
    marked: set[LatticeNode] = set()
    freq_cache: dict[LatticeNode, FrequencySet] = {}

    start_height = 0
    if state is not None:
        anonymous = set(nodes_from_json(state["anonymous"]))
        marked = set(nodes_from_json(state["marked"]))
        freq_cache = {
            fs.node: fs
            for fs in (
                frequency_set_from_json(item, problem)
                for item in state.get("boundary", [])
            )
        }
        start_height = int(state["height_done"]) + 1
    # Known upfront and recorded by overwrite, so checkpoints taken at any
    # height (and the completed-resume shortcut) carry the final value.
    stats.nodes_generated = lattice.size

    with run.pool() as pool:
        for height in range(start_height, lattice.max_height + 1):
            layer = lattice.nodes_at_height(height)
            level_started = time.perf_counter()
            # One span per lattice level: the trace shows how the
            # exhaustive search's cost is distributed over heights.
            with obs.span(
                "bottomup.level", height=height, layer_size=len(layer)
            ) as sp:
                checked_before = stats.nodes_checked
                # Marks affecting this height were all created at lower
                # heights (successors sit one level up), so triage first,
                # then evaluate the survivors as one batch.
                batch: list[LatticeNode] = []
                requests: list[tuple[LatticeNode, FrequencySet | None]] = []
                for node in sorted(layer, key=LatticeNode.sort_key):
                    if node in marked:
                        stats.nodes_marked += 1
                        anonymous.add(node)
                        marked.update(lattice.successors(node))
                        continue
                    if rollup and height > 0:
                        # Any direct specialization must have failed (else
                        # this node would be marked), so its set is cached.
                        parent = next(
                            p
                            for p in lattice.predecessors(node)
                            if p in freq_cache
                        )
                        requests.append((node, freq_cache[parent]))
                    else:
                        requests.append((node, None))
                    batch.append(node)

                frequency_sets = pool.materialize_batch(evaluator, requests)
                for node, frequency_set in zip(batch, frequency_sets):
                    if evaluator.decide(node, frequency_set, k, max_suppression):
                        anonymous.add(node)
                        marked.update(lattice.successors(node))
                    else:
                        freq_cache[node] = frequency_set
                if sp:
                    sp.set(nodes_checked=stats.nodes_checked - checked_before)
            stats.metrics.observe(
                "latency.level_seconds", time.perf_counter() - level_started
            )
            if rollup:
                # Frequency sets two layers down can no longer be parents.
                stale = [n for n in freq_cache if n.height < height]
                for node in stale:
                    del freq_cache[node]
            if run.store is not None:
                run.save(
                    height_done=height,
                    completed=height == lattice.max_height,
                    anonymous=nodes_to_json(
                        sorted(anonymous, key=LatticeNode.sort_key)
                    ),
                    marked=nodes_to_json(
                        sorted(marked, key=LatticeNode.sort_key)
                    ),
                    boundary=[
                        frequency_set_to_json(freq_cache[node])
                        for node in sorted(freq_cache, key=LatticeNode.sort_key)
                    ],
                )
    return run.finish(
        sorted(anonymous, key=LatticeNode.sort_key), start_height
    )
