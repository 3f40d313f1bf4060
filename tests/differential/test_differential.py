"""Differential suite: every algorithm vs. a scan-per-node oracle.

Hypothesis generates small random problems (2–4 QI attributes, mixed
hierarchy shapes, 4–40 rows) and asserts that the complete algorithms —
basic / super-roots / cube Incognito and exhaustive bottom-up — return
exactly the oracle's k-anonymous node set, and that Samarati's binary
search finds a minimal-height member of it.  The module-scoped fixtures
(see ``conftest.py``) run every example serially and on a two-worker
thread pool, with the frequency-set cache off and on: four combinations,
all of which must be observationally identical.

The oracle trusts no algorithm machinery and shares no code with the
group kernel: it counts generalized raw values per lattice node with the
pure-Python reference (``tests/reference.py``) and applies the
k-anonymity definition directly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    basic_incognito,
    bottom_up_search,
    cube_incognito,
    samarati_binary_search,
    superroots_incognito,
)
from repro.core.fscache import FrequencySetCache
from repro.core.problem import PreparedTable
from repro.datasets.landsend import landsend_problem
from repro.parallel import ExecutionConfig
from tests.conftest import make_random_problem
from tests.reference import ReferenceFrequencies

pytestmark = pytest.mark.differential

#: The sound-and-complete algorithms, all of which must agree exactly.
COMPLETE_ALGORITHMS = (
    basic_incognito,
    superroots_incognito,
    cube_incognito,
    bottom_up_search,
)

#: Structural counters that must be identical across execution modes.
STRUCTURAL_COUNTERS = (
    "nodes.checked",
    "nodes.marked",
    "frequency.table_scans",
    "frequency.rollups",
    "frequency.rollup_source_rows",
)

#: Cache accounting happens in the parent, so it too is mode-independent.
CACHE_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.rollup_saves",
    "cache.evictions",
)

#: A cache budget that holds only a few of a 40-row problem's sets (each
#: entry costs its arrays plus 256 bytes), so a search evicts.
SMALL_CACHE_BYTES = 4096


def assert_dist_metrics_identical(a, b, context=""):
    """The ``dist.*`` histogram family must be *bit-identical* across
    execution modes: its observations are data values (row counts), the
    evaluation plan is fixed in the parent, and the histogram merge is
    exact and order-free — so not just the summaries but the full bucket
    state must match.  (``latency.*``/``worker.*`` are wall-clock and OS
    telemetry; only their merge algebra is deterministic, so they are
    deliberately excluded.)
    """
    dist_a = a.stats.metrics.filtered("dist.")
    dist_b = b.stats.metrics.filtered("dist.")
    assert set(dist_a) == set(dist_b), context
    for name, histogram in dist_a.items():
        assert histogram == dist_b[name], f"{context}: {name}"


def oracle_anonymous_nodes(problem: PreparedTable, k: int) -> set:
    """Every k-anonymous node of the full lattice, by definition."""
    reference = ReferenceFrequencies(problem)
    return {
        node
        for node in problem.lattice().nodes()
        if reference.is_k_anonymous(node, k)
    }


@given(seed=st.integers(0, 2**20), k=st.integers(1, 6))
@settings(max_examples=50)
def test_complete_algorithms_match_oracle(execution, cache, seed, k):
    problem = make_random_problem(seed)
    expected = oracle_anonymous_nodes(problem, k)
    for algorithm in COMPLETE_ALGORITHMS:
        result = algorithm(problem, k, execution=execution, cache=cache)
        assert set(result.anonymous_nodes) == expected, algorithm.__name__


@given(seed=st.integers(0, 2**20), k=st.integers(1, 6))
@settings(max_examples=25)
def test_binary_search_finds_minimal_height(execution, cache, seed, k):
    problem = make_random_problem(seed)
    expected = oracle_anonymous_nodes(problem, k)
    result = samarati_binary_search(
        problem, k, execution=execution, cache=cache
    )
    if not expected:
        assert result.anonymous_nodes == []
    else:
        (found,) = result.anonymous_nodes
        assert found in expected
        assert found.height == min(node.height for node in expected)


def test_process_pool_matches_serial_exactly():
    """Processes-mode runs are byte-identical to serial, counters included.

    A dedicated seed-listed test (not hypothesis) because a process pool
    per generated example would dominate the suite's runtime.
    """
    execution = ExecutionConfig(mode="processes", workers=2)
    for seed in (3, 11, 42):
        problem = make_random_problem(seed, num_rows=30)
        for k in (2, 3):
            serial = basic_incognito(problem, k)
            parallel = basic_incognito(problem, k, execution=execution)
            assert parallel.anonymous_nodes == serial.anonymous_nodes
            for key in STRUCTURAL_COUNTERS:
                assert parallel.stats.counters.get(key) == serial.stats.counters.get(
                    key
                ), key
            assert_dist_metrics_identical(
                parallel, serial, f"processes seed={seed} k={k}"
            )


def test_worker_metric_merge_identical_across_modes():
    """Merged ``dist.*`` histograms are bit-identical serial vs threads vs
    processes, and pool runs ship uniform ``worker.*`` telemetry.

    The chunk payloads carry per-worker MetricSet deltas that the parent
    merges in submission order; because the merge is exact and the
    ``dist.*`` observations are plan-determined data values, every
    execution mode must converge on the same histogram state.  Serial runs
    have no chunks, hence no ``worker.*`` instruments, by construction.
    """
    threads = ExecutionConfig(mode="threads", workers=2)
    processes = ExecutionConfig(mode="processes", workers=2)
    for seed in (3, 42):
        problem = make_random_problem(seed, num_rows=30)
        serial = basic_incognito(problem, 2)
        threaded = basic_incognito(problem, 2, execution=threads)
        pooled = basic_incognito(problem, 2, execution=processes)
        assert_dist_metrics_identical(threaded, serial, f"threads seed={seed}")
        assert_dist_metrics_identical(pooled, serial, f"processes seed={seed}")
        # Pool modes describe their chunks uniformly...
        for result, mode in ((threaded, "threads"), (pooled, "processes")):
            workerish = result.stats.metrics.filtered("worker.")
            assert "worker.chunk_jobs" in workerish, mode
            assert "worker.chunk_seconds" in workerish, mode
            assert "worker.queue_wait_seconds" in workerish, mode
            # ...and every dispatched job is accounted for exactly once.
            assert workerish["worker.chunk_jobs"].sum == (
                threaded.stats.metrics.get("worker.chunk_jobs").sum
            ), mode
        # ...while pure serial execution never fabricates worker telemetry.
        assert serial.stats.metrics.filtered("worker.") == {}


def test_cache_does_not_change_thread_pool_results():
    """One shared cache across problems + thread pool stays transparent.

    Re-running the same problem against a warm cache must produce the
    same node set with zero fresh table scans (everything is a hit), and
    switching problems must invalidate cleanly.
    """
    cache = FrequencySetCache()
    execution = ExecutionConfig(mode="threads", workers=2)
    for seed in (5, 6):
        problem = make_random_problem(seed, num_rows=25)
        cold = basic_incognito(problem, 2, execution=execution, cache=cache)
        warm = basic_incognito(problem, 2, execution=execution, cache=cache)
        assert warm.anonymous_nodes == cold.anonymous_nodes
        assert warm.stats.table_scans == 0
        assert warm.stats.cache_hits > 0


@pytest.mark.parametrize(
    "cache_bytes", [None, SMALL_CACHE_BYTES], ids=["cache-off", "cache-small"]
)
def test_superroots_identical_across_modes(cache_bytes):
    """Super-roots answers and counts the same serially, on threads and on
    shards, with no cache and with one small enough to evict.

    Every problem has a family with several roots: Super-roots scans the
    table fewer times than Basic, which only a shared family scan can do.
    """
    modes = {
        "serial": ExecutionConfig(),
        "threads": ExecutionConfig(mode="threads", workers=2),
        "shards": ExecutionConfig(mode="shards", workers=2),
    }
    counters = STRUCTURAL_COUNTERS + ("frequency.rows",)
    if cache_bytes is not None:
        counters += CACHE_COUNTERS
    for seed in (3, 11, 42):
        problem = make_random_problem(seed, num_rows=40, num_attributes=4)
        for k in (2, 3):
            basic = basic_incognito(problem, k)
            runs = {
                mode: superroots_incognito(
                    problem,
                    k,
                    execution=config,
                    cache=None
                    if cache_bytes is None
                    else FrequencySetCache(cache_bytes),
                )
                for mode, config in modes.items()
            }
            serial = runs["serial"]
            assert serial.anonymous_nodes == basic.anonymous_nodes
            assert serial.stats.table_scans < basic.stats.table_scans
            if cache_bytes is not None:
                assert serial.stats.cache_evictions > 0
            for mode, result in runs.items():
                context = f"{mode} seed={seed} k={k}"
                assert result.anonymous_nodes == serial.anonymous_nodes, context
                for key in counters:
                    assert result.stats.counters.get(
                        key
                    ) == serial.stats.counters.get(key), f"{context}: {key}"
                assert_dist_metrics_identical(result, serial, context)


def test_superroots_landsend_counts_pinned():
    """Super-roots on 20,000 Lands End rows at QID 6 does exactly this
    much work: how the roots are fed may change, the work may not."""
    result = superroots_incognito(landsend_problem(20_000, qi_size=6), 2)
    assert result.stats.table_scans == 63
    assert result.stats.rollups == 148
    assert result.stats.nodes_checked == 182
    assert result.stats.rollup_source_rows == 1_791_985
    assert result.stats.frequency_set_rows == 493_176
    assert len(result.anonymous_nodes) == 82
