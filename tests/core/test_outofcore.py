"""Out-of-core scans (future work §7): serial runs of narrow row ranges.

A scan is a plan of row ranges; ``ExecutionConfig(shard_rows=w)`` splits
every scan of a serial run every ``w`` rows, and the evaluator runs the
ranges in a loop that folds every ``MERGE_FAN_IN`` partials.
``chunked_incognito`` is Basic Incognito run that way.
"""

import pytest

import numpy as np

from repro.core.anonymity import FrequencyEvaluator, compute_frequency_set
from repro.core.cube import cube_incognito
from repro.core.datafly import datafly
from repro.core.incognito import basic_incognito
from repro.core.outofcore import MERGE_FAN_IN, chunked_incognito, merge_partials
from repro.core.problem import PreparedTable
from repro.core.stats import SearchStats
from repro.core.superroots import superroots_incognito
from repro.datasets.adults import adults_problem
from repro.datasets.patients import patients_problem
from repro.parallel import BatchMaterializer, ExecutionConfig, use_execution
from tests.conftest import make_random_problem


def serial_scans(problem, nodes, width):
    """Scan ``nodes`` in one serial batch at range width ``width``."""
    evaluator = FrequencyEvaluator(problem, SearchStats(), shard_rows=width)
    with BatchMaterializer(problem, ExecutionConfig(shard_rows=width)) as pool:
        sets = pool.materialize_batch(evaluator, [(node, None) for node in nodes])
    return sets, evaluator.stats


def empty_patients_problem() -> PreparedTable:
    problem = patients_problem()
    return PreparedTable(
        problem.table.take([]),
        {name: problem.hierarchy(name) for name in problem.quasi_identifier},
        problem.quasi_identifier,
    )


class TestChunkedScan:
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 100])
    def test_matches_in_memory_scan_on_patients(self, width):
        problem = patients_problem()
        nodes = list(problem.lattice().nodes())
        sets, _ = serial_scans(problem, nodes, width)
        for node, ranged in zip(nodes, sets):
            direct = compute_frequency_set(problem, node)
            assert ranged.as_dict() == direct.as_dict(), str(node)

    def test_matches_on_larger_data(self):
        problem = adults_problem(3_000, qi_size=4)
        node = problem.bottom_node()
        (ranged,), _ = serial_scans(problem, [node], 512)
        direct = compute_frequency_set(problem, node)
        assert ranged.as_dict() == direct.as_dict()

    def test_empty_table(self):
        problem = empty_patients_problem()
        (fs,), stats = serial_scans(problem, [problem.bottom_node()], 4)
        assert fs.num_groups == 0
        assert stats.table_scans == 1

    def test_invalid_chunk_rows(self):
        with pytest.raises(ValueError):
            ExecutionConfig(shard_rows=0)

    def test_incremental_fold_matches_direct_beyond_fan_in(self):
        """Differential for the bounded-merge path: far more ranges than
        MERGE_FAN_IN, so partials are folded incrementally mid-scan."""
        problem = adults_problem(3_000, qi_size=4)
        width = 64
        num_ranges = -(-3_000 // width)
        assert num_ranges > 2 * MERGE_FAN_IN
        nodes = [problem.bottom_node(), problem.top_node()]
        sets, stats = serial_scans(problem, nodes, width)
        for node, ranged in zip(nodes, sets):
            direct = compute_frequency_set(problem, node)
            np.testing.assert_array_equal(ranged.key_codes, direct.key_codes)
            np.testing.assert_array_equal(ranged.counts, direct.counts)
        # 47 ranges fold at 8, 15, 22, 29, 36 and 43 partials, and the
        # last five partials merge once more: 7 merges per scan.
        assert stats.shard_range_scans == num_ranges * len(nodes)
        assert stats.shard_merges == 7 * len(nodes)


class TestMergePartials:
    def test_overlapping_groups_sum(self):
        keys_a = np.array([[0], [1]])
        keys_b = np.array([[1], [2]])
        merged_keys, merged_counts = merge_partials(
            [keys_a, keys_b],
            [np.array([2, 3]), np.array([4, 5])],
            [3],
        )
        np.testing.assert_array_equal(merged_keys, [[0], [1], [2]])
        np.testing.assert_array_equal(merged_counts, [2, 7, 5])

    def test_fold_order_is_irrelevant(self):
        problem = patients_problem()
        node = problem.bottom_node()
        (ranged,), _ = serial_scans(problem, [node], 1)
        direct = compute_frequency_set(problem, node)
        np.testing.assert_array_equal(ranged.key_codes, direct.key_codes)
        np.testing.assert_array_equal(ranged.counts, direct.counts)


class TestChunkedEvaluator:
    def test_scan_counted(self):
        problem = patients_problem()  # 6 rows in 2-row ranges
        (_,), stats = serial_scans(problem, [problem.bottom_node()], 2)
        assert stats.table_scans == 1
        assert stats.shard_range_scans == 3
        assert stats.shard_rows_scanned == 6
        assert stats.shard_merges == 1

    def test_one_range_is_a_plain_scan(self):
        problem = patients_problem()
        (_,), stats = serial_scans(problem, [problem.bottom_node()], 100)
        assert stats.table_scans == 1
        assert stats.shard_range_scans == 0
        assert stats.shard_merges == 0

    def test_rollup_inherited(self):
        problem = patients_problem()
        (base,), stats = serial_scans(problem, [problem.bottom_node()], 2)
        rolled = FrequencyEvaluator(problem, stats).rollup(
            base, problem.top_node()
        )
        assert rolled.total() == 6

    def test_invalid_chunk_rows(self):
        with pytest.raises(ValueError):
            chunked_incognito(patients_problem(), 2, chunk_rows=-1)


class TestChunkedIncognito:
    def test_same_answers_as_basic(self):
        problem = patients_problem()
        assert (
            chunked_incognito(problem, 2, chunk_rows=2).anonymous_nodes
            == basic_incognito(problem, 2).anonymous_nodes
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_agreement(self, seed):
        problem = make_random_problem(seed + 1_100)
        assert (
            chunked_incognito(problem, 2, chunk_rows=5).anonymous_nodes
            == basic_incognito(problem, 2).anonymous_nodes
        )

    def test_every_scan_runs_in_ranges(self):
        problem = patients_problem()
        chunked = chunked_incognito(problem, 2, chunk_rows=2)
        basic = basic_incognito(problem, 2)
        assert chunked.stats.table_scans == basic.stats.table_scans
        assert chunked.stats.shard_range_scans == 3 * basic.stats.table_scans

    def test_empty_table(self):
        problem = empty_patients_problem()
        assert (
            chunked_incognito(problem, 2, chunk_rows=3).anonymous_nodes
            == basic_incognito(problem, 2).anonymous_nodes
        )

    def test_algorithm_label(self):
        result = chunked_incognito(patients_problem(), 2)
        assert result.algorithm == "chunked-incognito"

    def test_keeps_the_region_execution(self):
        problem = make_random_problem(1_100)
        with use_execution(ExecutionConfig(mode="threads", workers=2)):
            chunked = chunked_incognito(problem, 2, chunk_rows=5)
        assert chunked.anonymous_nodes == basic_incognito(problem, 2).anonymous_nodes
        assert chunked.stats.parallel_tasks > 0
        assert chunked.stats.shard_range_scans > 0


class TestScansOutsideTheBatchPath:
    """Scans an algorithm draws without a batch run in ranges too: the
    super-roots, the cube's full-QI scan and Datafly's scans."""

    @pytest.mark.parametrize("algorithm", [superroots_incognito, cube_incognito])
    def test_provider_scans(self, algorithm):
        problem = patients_problem()  # 6 rows in 2-row ranges
        whole = algorithm(problem, 2)
        ranged = algorithm(problem, 2, execution=ExecutionConfig(shard_rows=2))
        assert ranged.anonymous_nodes == whole.anonymous_nodes
        assert ranged.stats.table_scans == whole.stats.table_scans
        assert ranged.stats.shard_range_scans == 3 * ranged.stats.table_scans

    def test_super_roots_are_scanned(self):
        problem = patients_problem()
        super_roots = superroots_incognito(problem, 2).stats.table_scans
        assert super_roots < basic_incognito(problem, 2).stats.table_scans

    def test_datafly_takes_the_region_width(self):
        problem = patients_problem()
        whole = datafly(problem, 2)
        with use_execution(ExecutionConfig(shard_rows=2)):
            ranged = datafly(problem, 2)
        assert ranged.anonymous_nodes == whole.anonymous_nodes
        assert ranged.stats.shard_range_scans == 3 * ranged.stats.table_scans
