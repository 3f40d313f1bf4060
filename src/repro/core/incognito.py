"""The Incognito algorithm (paper Section 3, Figure 8).

Incognito computes the set of *all* k-anonymous full-domain generalizations
by iterating over quasi-identifier subset sizes.  Iteration i searches a
candidate graph of i-attribute generalizations with a modified bottom-up
breadth-first search that exploits:

* the **rollup property** — a non-root node's frequency set is derived from
  the frequency set of the (failed) parent it was reached from, never by
  re-scanning the table;
* the **generalization property** — when a node checks out k-anonymous, all
  of its direct generalizations are marked and skipped;

and then builds iteration i+1's candidates with the **subset property**
(a-priori join/prune/edge generation, :mod:`repro.lattice.generation`).

The search is *level-synchronous*: because a direct generalization always
sits exactly one height above its specialization, marks and rollup sources
only ever flow upward across level boundaries, so all unmarked nodes at
one height are mutually independent.  The engine therefore collects each
height's work into a batch and hands it to a
:class:`~repro.parallel.BatchMaterializer`, which executes it serially, on
threads, or on shard worker processes — with bit-identical results and
identical structural counters in every mode (see
:mod:`repro.parallel.evaluator` for the determinism contract).  Within a level, entries are processed in
insertion order (roots first, then children in parent order), which is
exactly the order the previous heap-based engine popped them in.

The engine is shared by the variants, which differ only in how *root*
frequency sets are obtained — a provider answers
:meth:`RootProvider.root_source` with an optional rollup source:

* **Basic** — no source: scan the base table once per root;
* **Super-roots** (Section 3.3.1) — one scan per root *family* at the
  family's greatest lower bound, roots derived by rollup;
* **Cube** (Section 3.3.2) — no scans during the search at all: roots roll
  up from pre-computed zero-generalization frequency sets.

With a :class:`~repro.core.fscache.FrequencySetCache` attached (``cache=``
or :func:`~repro.core.fscache.use_cache`), every materialisation first
consults the cache: exact hits and cached-ancestor rollups replace table
work, visible as ``cache.*`` counters instead of ``frequency.*`` ones.

One deliberate deviation from the literal Figure 8 pseudocode: when a
*marked* node is dequeued we propagate its mark to its direct
generalizations before skipping it.  Figure 8 as printed just skips, which
can re-check a node that is provably anonymous when it is reachable both
from an anonymous node (marked) and a failed one (queued); the propagation
matches the generalization property's intent and the paper's node counts.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro import obs
from repro.core.anonymity import FrequencyEvaluator, FrequencySet
from repro.core.fscache import FrequencySetCache
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult
from repro.core.run import SearchRun
from repro.lattice.generation import graph_generation, initial_graph
from repro.lattice.graph import CandidateGraph
from repro.lattice.node import LatticeNode
from repro.parallel import BatchMaterializer, ExecutionConfig
from repro.resilience.checkpoint import (
    CheckpointStore,
    nodes_from_json,
    nodes_to_json,
)


class RootProvider:
    """Strategy object supplying frequency sets for candidate-graph roots."""

    def prepare(self, evaluator: FrequencyEvaluator, graph: CandidateGraph) -> None:
        """Hook called once per iteration before the search starts."""

    def root_source(
        self, evaluator: FrequencyEvaluator, node: LatticeNode
    ) -> FrequencySet | None:
        """A rollup source for root ``node``, or None to scan the table.

        The returned set's node may equal ``node`` itself (served as-is),
        or be a specialization of it (rolled up).  This is the method
        variants override: returning a *plan input* instead of a finished
        set lets the engine route the actual work through the cache and
        the parallel batch evaluator.
        """
        return None


class ScanRootProvider(RootProvider):
    """Basic Incognito: every root costs one scan of the base table.

    The default :meth:`RootProvider.root_source` (no source) already means
    "scan"; the class exists so the basic variant is named in code.
    """


def _search_graph(
    evaluator: FrequencyEvaluator,
    graph: CandidateGraph,
    k: int,
    max_suppression: int,
    provider: RootProvider,
    pool: BatchMaterializer,
) -> list[LatticeNode]:
    """One iteration's modified BFS; returns the surviving (anonymous) nodes.

    Nodes enter their height's entry list either as roots or as direct
    generalizations of failed nodes.  Each height is evaluated as one
    batch; failed nodes cache their frequency sets so children can roll up
    from them, and a cache entry is released once all entries referencing
    it have been consumed.
    """
    stats = evaluator.stats
    survivors = set(graph.nodes)
    marked: set[LatticeNode] = set()
    freq_cache: dict[LatticeNode, FrequencySet] = {}
    pending_children: dict[LatticeNode, int] = {}

    # Per-height entry lists, in insertion order.  A node's entries all
    # live at its own height, and children enter strictly above the level
    # being processed, so popping min(levels) visits nodes in exactly the
    # old heap's (height, insertion counter) order.
    levels: dict[int, list[tuple[LatticeNode, LatticeNode | None]]] = {}
    for root in graph.roots():
        levels.setdefault(root.height, []).append((root, None))

    def release(parent: LatticeNode | None) -> None:
        if parent is None:
            return
        pending_children[parent] -= 1
        if pending_children[parent] == 0:
            del pending_children[parent]
            del freq_cache[parent]

    while levels:
        height = min(levels)
        entries = levels.pop(height)
        level_started = time.perf_counter()

        # Triage the level: duplicates release their parent, marked nodes
        # propagate (all marks affecting this height were created at lower
        # heights, so membership is final here), the rest form the batch.
        batch: list[tuple[LatticeNode, LatticeNode | None]] = []
        requests: list[tuple[LatticeNode, FrequencySet | None]] = []
        seen: set[LatticeNode] = set()
        for node, parent in entries:
            if node in seen:
                release(parent)
                continue
            seen.add(node)
            if node in marked:
                # Anonymous by the generalization property; propagate.
                stats.nodes_marked += 1
                marked.update(graph.direct_generalizations(node))
                release(parent)
                continue
            batch.append((node, parent))
            if parent is not None:
                requests.append((node, freq_cache[parent]))
            else:
                requests.append((node, provider.root_source(evaluator, node)))

        frequency_sets = pool.materialize_batch(evaluator, requests)

        for (node, parent), frequency_set in zip(batch, frequency_sets):
            if evaluator.decide(node, frequency_set, k, max_suppression):
                marked.update(graph.direct_generalizations(node))
            else:
                survivors.discard(node)
                children = graph.direct_generalizations(node)
                if children:
                    freq_cache[node] = frequency_set
                    pending_children[node] = len(children)
                    for child in children:
                        levels.setdefault(child.height, []).append(
                            (child, node)
                        )
            release(parent)

        # One observation per BFS level: the paper's per-level cost curve.
        evaluator.stats.metrics.observe(
            "latency.level_seconds", time.perf_counter() - level_started
        )

    return sorted(survivors, key=LatticeNode.sort_key)


def run_incognito(
    problem: PreparedTable,
    k: int,
    *,
    max_suppression: int = 0,
    provider_factory: Callable[[PreparedTable, FrequencyEvaluator], RootProvider]
    | None = None,
    algorithm: str = "basic-incognito",
    execution: ExecutionConfig | None = None,
    cache: FrequencySetCache | None = None,
    checkpoint: CheckpointStore | None = None,
    resume: bool = False,
) -> AnonymizationResult:
    """Shared driver for the Incognito variants (Figure 8's outer loop).

    ``execution`` and ``cache`` default to the region defaults installed
    via :func:`repro.parallel.use_execution` /
    :func:`repro.core.fscache.use_cache` (serial, no cache out of the
    box), so fixed-signature callers can opt in without new parameters.

    With a ``checkpoint`` store (explicit, or resolved from the
    :func:`repro.resilience.use_checkpoints` region default) the run
    persists its full progress after *every completed iteration* —
    survivors per subset size, counters, elapsed time — atomically.
    ``resume=True`` replays a matching checkpoint instead of re-searching:
    completed iterations are reconstructed by pure graph generation (zero
    table scans, zero node checks) and the search continues at the first
    incomplete subset size with restored counters, so an interrupted +
    resumed run ends with the same marked set and the same structural
    counters as an uninterrupted one.  :class:`~repro.core.run.SearchRun`
    holds the checkpoint protocol.
    """
    qi = problem.quasi_identifier
    run = SearchRun(
        problem,
        k,
        kind="incognito",
        algorithm=algorithm,
        resumed_key="resumed_iterations",
        max_suppression=max_suppression,
        execution=execution,
        cache=cache,
        checkpoint=checkpoint,
        resume=resume,
        qi=list(qi),
    )
    state = run.state
    if run.completed:
        # The whole search already ran to completion: the result is the
        # checkpoint.  No evaluator, no scans, no pool.
        done = int(state["iterations_done"])
        return run.finish(
            nodes_from_json(state["survivors_by_size"][str(done)]), done
        )

    evaluator = run.start()
    # Provider construction may do real work (Cube Incognito's
    # pre-computation phase) so it is timed as part of the run.
    if provider_factory is None:
        provider = ScanRootProvider()
    else:
        provider = provider_factory(problem, evaluator)
    # Restore *after* provider construction: the snapshot already
    # accounts the original run's pre-computation (e.g. Cube's build
    # scans), so the re-run's duplicate is discarded and the final
    # counters match an uninterrupted run.
    run.restore_counters()
    stats = run.stats
    graph = initial_graph(qi, problem.heights)
    survivors: Sequence[LatticeNode] = []

    survivors_by_size: dict[str, list] = {}
    start_size = 1
    if state is not None:
        survivors_by_size = dict(state["survivors_by_size"])
        start_size = int(state["iterations_done"]) + 1
        with obs.span(
            "incognito.resume",
            algorithm=algorithm,
            iterations_done=start_size - 1,
        ):
            # Replay completed iterations as pure graph work — no scans,
            # no rollups, no node checks, no counter changes.
            for size in range(1, start_size):
                survivors = nodes_from_json(survivors_by_size[str(size)])
                if size < len(qi):
                    graph = graph_generation(survivors, graph, qi)

    with run.pool() as pool:
        for size in range(start_size, len(qi) + 1):
            # One paper iteration = one a-priori subset size (lattice level
            # of the outer search): its own phase span, so traces show
            # where the scans and rollups of each subset size land.
            with obs.span(
                "incognito.iteration",
                algorithm=algorithm,
                subset_size=size,
                candidates=len(graph),
            ) as sp:
                checked_before = stats.nodes_checked
                stats.nodes_generated += len(graph)
                provider.prepare(evaluator, graph)
                survivors = _search_graph(
                    evaluator, graph, k, max_suppression, provider, pool
                )
                if sp:
                    sp.set(
                        survivors=len(survivors),
                        nodes_checked=stats.nodes_checked - checked_before,
                    )
            if run.store is not None:
                survivors_by_size[str(size)] = nodes_to_json(survivors)
                run.save(
                    iterations_done=size,
                    completed=size == len(qi),
                    survivors_by_size=survivors_by_size,
                )
            if size < len(qi):
                with obs.span(
                    "incognito.graph_generation", subset_size=size + 1
                ):
                    graph = graph_generation(survivors, graph, qi)
    return run.finish(survivors, start_size - 1)


def basic_incognito(
    problem: PreparedTable,
    k: int,
    *,
    max_suppression: int = 0,
    execution: ExecutionConfig | None = None,
    cache: FrequencySetCache | None = None,
    checkpoint: CheckpointStore | None = None,
    resume: bool = False,
) -> AnonymizationResult:
    """Basic Incognito (Section 3.1): sound and complete full-domain search."""
    return run_incognito(
        problem,
        k,
        max_suppression=max_suppression,
        algorithm="basic-incognito",
        execution=execution,
        cache=cache,
        checkpoint=checkpoint,
        resume=resume,
    )
