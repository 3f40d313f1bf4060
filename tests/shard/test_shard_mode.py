"""The ``shards`` execution mode: bit-identical results, clean lifecycle.

The contract under test: a shard worker scanning a node's row ranges
over shared memory in a loop and merging the partials is invisible
everywhere except the ``shard.*`` telemetry — frequency sets,
``frequency.*`` counters, search results, and checkpoints all match a
serial run bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.core.anonymity import FrequencyEvaluator
from repro.core.incognito import basic_incognito
from repro.core.stats import SearchStats
from repro.datasets.landsend import landsend_problem_shm
from repro.parallel import BatchMaterializer, ExecutionConfig, use_execution
from repro.resilience import CheckpointStore, FaultPlan
from repro.shard import SharedTableStore
from tests.conftest import make_random_problem, tiny_numeric_problem
from tests.resilience.test_checkpoint import BombStore, Killed
from tests.resilience.test_supervisor import (
    FAST,
    all_requests,
    frequency_counters,
    serial_baseline,
)


def shard_config(**overrides) -> ExecutionConfig:
    settings = dict(mode="shards", workers=2, shard_rows=3)
    settings.update(overrides)
    return ExecutionConfig(**settings)


class TestShardBatchDifferential:
    def run_shards(self, problem, requests, config):
        evaluator = FrequencyEvaluator(
            problem, SearchStats(), shard_rows=config.shard_rows
        )
        with BatchMaterializer(problem, config) as pool:
            sets = pool.materialize_batch(evaluator, requests)
        return sets, evaluator.stats

    @pytest.mark.parametrize("shard_rows", [1, 2, 3, 7, 100])
    def test_matches_serial_for_every_shard_width(self, shard_rows):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        expected_sets, expected_counters = serial_baseline(problem, requests)
        actual_sets, stats = self.run_shards(
            problem, requests, shard_config(shard_rows=shard_rows)
        )
        for left, right in zip(expected_sets, actual_sets):
            assert left.node == right.node
            assert left.as_dict() == right.as_dict()
        assert frequency_counters(stats.counters) == (
            frequency_counters(expected_counters)
        )

    def test_worker_range_loops_surface_in_shard_counters(self):
        problem = tiny_numeric_problem()  # 10 rows / 3-row shards = 4 each
        requests = all_requests(problem)
        _, stats = self.run_shards(problem, requests, shard_config())
        assert stats.shard_range_scans > 0
        assert stats.shard_merges == len(requests)
        assert stats.shard_rows_scanned == (
            problem.table.num_rows * len(requests)
        )
        # The ranges are telemetry, not accounting: the run still reports
        # one table scan per node, as serial would.
        assert stats.table_scans == len(requests)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_problems_match_serial(self, seed):
        problem = make_random_problem(seed + 2_200, num_rows=35)
        requests = all_requests(problem)
        expected_sets, expected_counters = serial_baseline(problem, requests)
        actual_sets, stats = self.run_shards(
            problem, requests, shard_config(shard_rows=4)
        )
        for left, right in zip(expected_sets, actual_sets):
            assert left.as_dict() == right.as_dict()
        assert frequency_counters(stats.counters) == (
            frequency_counters(expected_counters)
        )

    def test_single_range_worker_scans_merge_nothing(self):
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        expected_sets, _ = serial_baseline(problem, requests)
        actual_sets, stats = self.run_shards(
            problem, requests, shard_config(shard_rows=1_000)
        )
        for left, right in zip(expected_sets, actual_sets):
            assert left.as_dict() == right.as_dict()
        assert stats.shard_merges == 0


class TestStoreLifecycle:
    def test_materializer_creates_and_closes_its_own_store(self):
        problem = tiny_numeric_problem()
        config = shard_config()
        pool = BatchMaterializer(problem, config)
        evaluator = FrequencyEvaluator(
            problem, SearchStats(), shard_rows=config.shard_rows
        )
        with pool:
            pool.materialize_batch(evaluator, all_requests(problem))
            store = pool._shm_store
            assert store is not None and not store.closed
        assert store.closed

    def test_materializer_adopts_but_does_not_close_problem_store(self):
        problem = tiny_numeric_problem()
        store = SharedTableStore.from_problem(problem)
        problem._shm_store = store
        try:
            config = shard_config()
            evaluator = FrequencyEvaluator(
                problem, SearchStats(), shard_rows=config.shard_rows
            )
            with BatchMaterializer(problem, config) as pool:
                pool.materialize_batch(evaluator, all_requests(problem))
                assert pool._shm_store is store
            # Adopted store outlives the pool: the builder owns it.
            assert not store.closed
        finally:
            store.close()


class TestDegradation:
    def test_constant_crashes_demote_shards_to_threads(self):
        """Shard workers that keep dying walk the ladder; results hold."""
        problem = tiny_numeric_problem()
        requests = all_requests(problem)
        expected_sets, _ = serial_baseline(problem, requests)
        plan = FaultPlan(crash_rate=1.0, seed=13)
        config = shard_config(max_retries=2, faults=plan, **FAST)
        evaluator = FrequencyEvaluator(
            problem, SearchStats(), shard_rows=config.shard_rows
        )
        with BatchMaterializer(problem, config) as pool:
            actual_sets = pool.materialize_batch(evaluator, requests)
            final_mode = pool.mode
        for left, right in zip(expected_sets, actual_sets):
            assert left.as_dict() == right.as_dict()
        counters = evaluator.stats.counters
        assert counters.get("fault.pool_rebuilds", 0) == 1
        assert counters.get("fault.demotions", 0) >= 1
        assert final_mode in ("threads", "serial")


class TestShardIncognito:
    def test_search_matches_serial(self):
        problem = make_random_problem(31, num_rows=45, num_attributes=3)
        baseline = basic_incognito(problem, 2)
        with use_execution(shard_config(shard_rows=8)):
            sharded = basic_incognito(problem, 2)
        assert sharded.anonymous_nodes == baseline.anonymous_nodes
        assert sharded.stats.table_scans == baseline.stats.table_scans
        assert (
            sharded.stats.frequency_set_rows
            == baseline.stats.frequency_set_rows
        )

    def test_streamed_problem_matches_serial_and_stays_open(self):
        """The benchmark's full-scale flow in miniature: a Lands End table
        streamed into shared memory and searched with
        ``ExecutionConfig(mode="shards", workers=2)`` gives the serial
        answer, and its store stays open for its builder to close."""
        problem = landsend_problem_shm(2_000, qi_size=3, seed=5)
        store = problem._shm_store
        try:
            baseline = basic_incognito(problem, 2)
            sharded = basic_incognito(
                problem, 2, execution=ExecutionConfig(mode="shards", workers=2)
            )
            assert sharded.anonymous_nodes == baseline.anonymous_nodes
            assert sharded.stats.nodes_checked == baseline.stats.nodes_checked
            assert frequency_counters(sharded.stats.counters) == (
                frequency_counters(baseline.stats.counters)
            )
            assert problem._shm_store is store and not store.closed
        finally:
            store.close()

    def test_kill_resume_equals_uninterrupted(self, tmp_path):
        """A shard-mode run killed at a checkpoint resumes to the serial
        answer with identical structural accounting."""
        problem = make_random_problem(32, num_rows=45, num_attributes=3)
        baseline = basic_incognito(problem, 2)

        path = tmp_path / "run.ckpt.json"
        with use_execution(shard_config(shard_rows=8)):
            with pytest.raises(Killed):
                basic_incognito(
                    problem, 2, checkpoint=BombStore(path, bomb_after=1)
                )
            resumed = basic_incognito(
                problem, 2, checkpoint=CheckpointStore(path), resume=True
            )
        assert resumed.anonymous_nodes == baseline.anonymous_nodes
        baseline_freq = frequency_counters(baseline.stats.counters)
        resumed_freq = frequency_counters(resumed.stats.counters)
        assert resumed_freq == baseline_freq
