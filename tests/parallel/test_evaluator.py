"""Unit tests for the parallel execution config and batch materializer."""

from __future__ import annotations

import pytest

from repro.core.anonymity import (
    FrequencyEvaluator,
    ScanPlan,
    compute_frequency_set_range,
)
from repro.core.fscache import FrequencySetCache
from repro.core.stats import SearchStats
from repro.parallel import (
    BatchMaterializer,
    ExecutionConfig,
    current_execution,
    use_execution,
)
from repro.parallel.evaluator import _ships_to_a_process, _split_chunks
from tests.conftest import tiny_numeric_problem


class TestExecutionConfig:
    def test_default_is_serial(self):
        config = ExecutionConfig()
        assert config.mode == "serial" and config.workers == 1
        assert not config.is_parallel

    def test_single_worker_normalizes_to_serial(self):
        config = ExecutionConfig(mode="processes", workers=1)
        assert config.mode == "serial"
        assert not config.is_parallel

    def test_serial_normalizes_workers_to_one(self):
        assert ExecutionConfig(mode="serial", workers=8).workers == 1

    def test_from_workers(self):
        assert not ExecutionConfig.from_workers(None).is_parallel
        assert not ExecutionConfig.from_workers(1).is_parallel
        config = ExecutionConfig.from_workers(3)
        assert config.mode == "threads" and config.workers == 3
        assert ExecutionConfig.from_workers(2, "shards").mode == "shards"

    def test_processes_is_an_alias_for_shards(self):
        config = ExecutionConfig(mode="processes", workers=3)
        assert config.mode == "shards" and config.workers == 3
        assert ExecutionConfig.from_workers(3, "processes") == config

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ExecutionConfig(mode="fibers")
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)

    def test_use_execution_installs_and_restores(self):
        assert not current_execution().is_parallel
        config = ExecutionConfig(mode="threads", workers=2)
        with use_execution(config):
            assert current_execution() is config
        assert not current_execution().is_parallel


class TestSplitChunks:
    def test_even_and_uneven_splits(self):
        assert _split_chunks([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]
        assert _split_chunks([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]

    def test_never_produces_empty_chunks(self):
        assert _split_chunks([1, 2], 5) == [[1], [2]]

    def test_preserves_order(self):
        items = list(range(17))
        chunks = _split_chunks(items, 4)
        assert [x for chunk in chunks for x in chunk] == items

    def test_empty_items_is_no_chunks(self):
        # Regression: this used to divide by a zero chunk count.
        assert _split_chunks([], 3) == []


class TestBatchMaterializer:
    def _requests(self, problem):
        lattice = problem.lattice()
        nodes = []
        for height in range(lattice.max_height + 1):
            nodes.extend(lattice.nodes_at_height(height))
        return [(node, None) for node in nodes]

    def test_thread_batch_matches_serial(self):
        problem = tiny_numeric_problem()
        requests = self._requests(problem)

        serial_eval = FrequencyEvaluator(problem, SearchStats())
        with BatchMaterializer(problem, ExecutionConfig()) as pool:
            serial_sets = pool.materialize_batch(serial_eval, requests)

        thread_eval = FrequencyEvaluator(problem, SearchStats())
        config = ExecutionConfig(mode="threads", workers=2)
        with BatchMaterializer(problem, config) as pool:
            thread_sets = pool.materialize_batch(thread_eval, requests)

        for left, right in zip(serial_sets, thread_sets):
            assert left.node == right.node
            assert left.as_dict() == right.as_dict()
        assert (
            serial_eval.stats.table_scans == thread_eval.stats.table_scans
        )
        assert serial_eval.stats.parallel_tasks == 0
        assert thread_eval.stats.parallel_tasks > 0
        assert thread_eval.stats.parallel_workers == 2

    def test_process_batch_matches_serial(self):
        problem = tiny_numeric_problem()
        requests = self._requests(problem)

        serial_eval = FrequencyEvaluator(problem, SearchStats())
        with BatchMaterializer(problem, ExecutionConfig()) as pool:
            serial_sets = pool.materialize_batch(serial_eval, requests)

        process_eval = FrequencyEvaluator(problem, SearchStats())
        config = ExecutionConfig(mode="processes", workers=2)
        with BatchMaterializer(problem, config) as pool:
            process_sets = pool.materialize_batch(process_eval, requests)

        for left, right in zip(serial_sets, process_sets):
            assert left.node == right.node
            assert left.as_dict() == right.as_dict()
        assert (
            serial_eval.stats.table_scans == process_eval.stats.table_scans
        )

    def test_cache_hits_bypass_dispatch(self):
        problem = tiny_numeric_problem()
        requests = self._requests(problem)
        cache = FrequencySetCache()
        config = ExecutionConfig(mode="threads", workers=2)

        stats = SearchStats()
        evaluator = FrequencyEvaluator(problem, stats, cache=cache)
        with BatchMaterializer(problem, config) as pool:
            pool.materialize_batch(evaluator, requests)
            first_tasks = stats.parallel_tasks
            pool.materialize_batch(evaluator, requests)
        # Second batch: every request is an exact hit, resolved in the
        # parent with no dispatch at all.
        assert stats.parallel_tasks == first_tasks
        assert stats.cache_hits == len(requests)

    def test_rollup_sources_are_shipped(self):
        problem = tiny_numeric_problem()
        evaluator = FrequencyEvaluator(problem, SearchStats())
        bottom = problem.bottom_node()
        base = evaluator.scan(bottom)
        lattice = problem.lattice()
        ups = [
            (node, base) for node in lattice.nodes_at_height(1)
        ]
        config = ExecutionConfig(mode="processes", workers=2)
        with BatchMaterializer(problem, config) as pool:
            results = pool.materialize_batch(evaluator, ups)

        check = FrequencyEvaluator(problem, SearchStats())
        for (node, _), result in zip(ups, results):
            assert result.as_dict() == check.scan(node).as_dict()
        # All jobs were rollups from the shipped base, not fresh scans.
        assert evaluator.stats.rollups == len(ups)
        assert evaluator.stats.table_scans == 1  # just the base scan

    def test_shards_keep_rollups_in_the_parent(self):
        """A rollup's source would be pickled whole into a shard worker,
        so the parent rolls up itself: a batch of rollups starts no pool,
        and its chunk reports its jobs as a worker's would."""
        problem = tiny_numeric_problem()
        evaluator = FrequencyEvaluator(problem, SearchStats())
        base = evaluator.scan(problem.bottom_node())
        ups = [(node, base) for node in problem.lattice().nodes_at_height(1)]
        assert len(ups) > 1
        config = ExecutionConfig(mode="shards", workers=2)
        with BatchMaterializer(problem, config) as pool:
            results = pool.materialize_batch(evaluator, ups)
            assert pool._executor is None
        check = FrequencyEvaluator(problem, SearchStats())
        for (node, _), result in zip(ups, results):
            assert result.as_dict() == check.scan(node).as_dict()
        assert evaluator.stats.rollups == len(ups)
        assert evaluator.stats.parallel_tasks == 0
        jobs = evaluator.stats.metrics.get("worker.chunk_jobs")
        assert jobs is not None and jobs.sum == len(ups)

    def test_only_plain_scans_ship_to_a_process(self):
        problem = tiny_numeric_problem()
        node = problem.bottom_node()
        plain = FrequencyEvaluator(problem).plan_scan()
        prefix = compute_frequency_set_range(problem, node, 0, 4)
        based = ScanPlan(
            ((4, problem.num_rows),), (prefix.key_codes, prefix.counts, 4)
        )
        assert _ships_to_a_process((0, node, "scan", plain))
        assert not _ships_to_a_process((0, node, "scan", based))
        assert not _ships_to_a_process((0, node, "rollup", prefix))
