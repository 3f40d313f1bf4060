"""Supervised batch path: retry, degradation ladder, counter determinism.

Every test compares a fault-injected parallel run against a serial
no-fault baseline: the frequency sets and all ``frequency.*`` counters
must be bit-identical (the resilience contract), while the injections
themselves surface under ``fault.*`` / ``retry.*``.
"""

from __future__ import annotations

import pytest

from repro.core.anonymity import FrequencyEvaluator
from repro.core.fscache import FrequencySetCache
from repro.core.stats import SearchStats
from repro.parallel import BatchMaterializer, ExecutionConfig
from repro.resilience import FaultPlan
from tests.conftest import tiny_numeric_problem

#: Fast supervision policy for tests: short stalls, near-zero backoff.
FAST = dict(chunk_timeout=0.15, backoff_base=0.001, backoff_cap=0.01)


def all_requests(problem):
    lattice = problem.lattice()
    nodes = []
    for height in range(lattice.max_height + 1):
        nodes.extend(lattice.nodes_at_height(height))
    return [(node, None) for node in nodes]


def serial_baseline(problem, requests, rounds=1):
    evaluator = FrequencyEvaluator(problem, SearchStats())
    with BatchMaterializer(problem, ExecutionConfig()) as pool:
        for _ in range(rounds):
            sets = pool.materialize_batch(evaluator, requests)
    return sets, evaluator.stats.counters


def frequency_counters(counters) -> dict:
    return {
        key: value
        for key, value in counters.as_dict().items()
        if key.startswith("frequency.")
    }


def assert_matches_baseline(problem, requests, config, *, cache=None, rounds=1):
    """Run under ``config``; assert sets + frequency.* match serial no-fault.

    ``rounds`` re-materialises the same batch through one pool, advancing
    the task counter so a low-rate fault plan gets enough draws to fire
    (algorithm runs dispatch one batch per lattice level the same way).
    """
    expected_sets, expected_counters = serial_baseline(problem, requests, rounds)
    evaluator = FrequencyEvaluator(
        problem, SearchStats(), cache=cache, shard_rows=config.shard_rows
    )
    with BatchMaterializer(problem, config) as pool:
        for _ in range(rounds):
            actual_sets = pool.materialize_batch(evaluator, requests)
        final_mode = pool.mode
    for left, right in zip(expected_sets, actual_sets):
        assert left.node == right.node
        assert left.as_dict() == right.as_dict()
    if cache is None:
        assert frequency_counters(evaluator.stats.counters) == (
            frequency_counters(expected_counters)
        )
    return evaluator.stats.counters, final_mode


class TestFaultMatrixThreads:
    def test_crash_and_timeout_mix_is_transparent(self):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(
            crash_rate=0.2, timeout_rate=0.1, seed=7, hold_seconds=0.3
        )
        config = ExecutionConfig(
            mode="threads", workers=2, faults=plan, **FAST
        )
        counters, _ = assert_matches_baseline(
            problem, requests, config, rounds=5
        )
        injected = sum(
            value
            for key, value in counters.as_dict().items()
            if key.startswith("fault.injected.")
        )
        assert injected > 0
        assert counters.get("retry.attempts", 0) >= 1

    def test_poison_everything_falls_back_serially(self):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(poison_rate=1.0, seed=5)
        config = ExecutionConfig(
            mode="threads", workers=2, max_retries=1, faults=plan, **FAST
        )
        counters, _ = assert_matches_baseline(problem, requests, config)
        assert counters.get("fault.poisoned", 0) >= 1
        # Every attempt poisons, so every chunk exhausts its retry budget
        # and lands on the always-clean serial fallback.
        assert counters.get("retry.serial_fallbacks", 0) >= 1

    def test_constant_crashes_still_complete(self):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(crash_rate=1.0, seed=2)
        config = ExecutionConfig(
            mode="threads", workers=2, max_retries=2, faults=plan, **FAST
        )
        counters, _ = assert_matches_baseline(problem, requests, config)
        assert counters.get("fault.crashes", 0) >= 1
        assert counters.get("retry.serial_fallbacks", 0) >= 1

    def test_slow_workers_do_not_trip_retries(self):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(slow_rate=1.0, slow_seconds=0.005, seed=1)
        config = ExecutionConfig(mode="threads", workers=2, faults=plan)
        counters, _ = assert_matches_baseline(problem, requests, config)
        assert counters.get("fault.injected.slow", 0) >= 1
        assert counters.get("retry.attempts", 0) == 0


class TestMemoryPressure:
    def test_degrades_cache_to_scan_through(self):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        cache = FrequencySetCache()
        plan = FaultPlan(memory_pressure_rate=1.0, seed=3)
        config = ExecutionConfig(mode="threads", workers=2, faults=plan)
        counters, _ = assert_matches_baseline(
            problem, requests, config, cache=cache
        )
        assert cache.degraded
        assert counters.get("fault.memory_pressure", 0) >= 1
        # Results survive degradation; the cache just stops serving, so a
        # repeat batch re-scans instead of hitting.
        evaluator = FrequencyEvaluator(problem, SearchStats(), cache=cache)
        with BatchMaterializer(problem, config) as pool:
            pool.materialize_batch(evaluator, requests)
        assert evaluator.stats.cache_hits == 0
        assert evaluator.stats.table_scans == len(requests)


class TestProcessPoolLadder:
    def test_acceptance_plan_on_processes(self):
        """The ISSUE acceptance case: crash=0.2, timeout=0.1, seed=7."""
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(crash_rate=0.2, timeout_rate=0.1, seed=7)
        config = ExecutionConfig(
            mode="processes",
            workers=2,
            faults=plan,
            chunk_timeout=0.25,
            backoff_base=0.001,
            backoff_cap=0.01,
        )
        counters, _ = assert_matches_baseline(
            problem, requests, config, rounds=5
        )
        injected = sum(
            value
            for key, value in counters.as_dict().items()
            if key.startswith("fault.injected.")
        )
        assert injected > 0

    def test_constant_crashes_walk_the_ladder(self):
        """Process crashes break the pool: one rebuild, then demotion."""
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(crash_rate=1.0, seed=6)
        config = ExecutionConfig(
            mode="processes", workers=2, max_retries=2, faults=plan, **FAST
        )
        counters, final_mode = assert_matches_baseline(
            problem, requests, config
        )
        assert counters.get("fault.pool_rebuilds", 0) == 1
        assert counters.get("fault.demotions", 0) >= 1
        assert final_mode in ("threads", "serial")


class TestShardLadder:
    """Fault matrix for the ``shards`` rung (shards → threads → serial).

    PR 6 added shard-mode execution to the degradation ladder but only
    the processes rung had a dedicated fault-matrix test; these mirror
    it: every shard-mode run under injected faults must stay
    bit-identical to the serial no-fault baseline, and constant failure
    must demote down the ladder rather than wedge or error out.
    """

    #: Tiny ranges so each scan of the test fixture loops over several.
    SHARD = dict(shard_rows=4)

    def test_acceptance_plan_on_shards(self):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(crash_rate=0.2, timeout_rate=0.1, seed=7)
        config = ExecutionConfig(
            mode="shards",
            workers=2,
            faults=plan,
            chunk_timeout=0.25,
            backoff_base=0.001,
            backoff_cap=0.01,
            **self.SHARD,
        )
        counters, _ = assert_matches_baseline(
            problem, requests, config, rounds=5
        )
        injected = sum(
            value
            for key, value in counters.as_dict().items()
            if key.startswith("fault.injected.")
        )
        assert injected > 0

    def test_constant_crashes_walk_shards_down_the_ladder(self):
        """Every shard task crashes: demote to threads, then serial."""
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(crash_rate=1.0, seed=6)
        config = ExecutionConfig(
            mode="shards",
            workers=2,
            max_retries=2,
            faults=plan,
            **FAST,
            **self.SHARD,
        )
        counters, final_mode = assert_matches_baseline(
            problem, requests, config
        )
        assert counters.get("fault.demotions", 0) >= 1
        assert final_mode in ("threads", "serial")

    def test_poison_on_shards_reaches_serial_fallback(self):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(poison_rate=1.0, seed=5)
        config = ExecutionConfig(
            mode="shards",
            workers=2,
            max_retries=1,
            faults=plan,
            **FAST,
            **self.SHARD,
        )
        counters, _ = assert_matches_baseline(problem, requests, config)
        assert counters.get("fault.poisoned", 0) >= 1
        assert counters.get("retry.serial_fallbacks", 0) >= 1

    def test_shard_timeouts_retry_transparently(self):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        plan = FaultPlan(timeout_rate=0.4, seed=9, hold_seconds=0.3)
        config = ExecutionConfig(
            mode="shards", workers=2, faults=plan, **FAST, **self.SHARD
        )
        counters, _ = assert_matches_baseline(
            problem, requests, config, rounds=3
        )
        assert counters.get("fault.injected.timeout", 0) >= 1
        assert counters.get("retry.attempts", 0) >= 1


class TestShutdownSafety:
    class _BrokenExecutor:
        def shutdown(self, wait=True, cancel_futures=False):
            raise RuntimeError("pool already torn down")

    def test_close_records_instead_of_raising(self):
        problem = tiny_numeric_problem()
        pool = BatchMaterializer(
            problem, ExecutionConfig(mode="threads", workers=2)
        )
        pool._executor = self._BrokenExecutor()
        pool.close()  # must not raise
        assert isinstance(pool.shutdown_error, RuntimeError)
        assert pool._executor is None

    def test_context_exit_never_masks_the_algorithm_error(self):
        problem = tiny_numeric_problem()
        with pytest.raises(KeyError, match="algorithm bug"):
            with BatchMaterializer(
                problem, ExecutionConfig(mode="threads", workers=2)
            ) as pool:
                pool._executor = self._BrokenExecutor()
                raise KeyError("algorithm bug")
        assert isinstance(pool.shutdown_error, RuntimeError)
