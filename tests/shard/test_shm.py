"""Shared-memory table store: planning, lifecycle, zero-copy round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.anonymity import FrequencyEvaluator, compute_frequency_set
from repro.core.problem import PreparedTable
from repro.hierarchy import SuppressionHierarchy
from repro.parallel import ExecutionConfig
from repro.shard import SharedTableStore, attach_problem
from tests.conftest import make_random_problem, tiny_numeric_problem


def plan_ranges(num_rows: int, width: int | None) -> tuple:
    """The row ranges ``plan_scan`` splits a ``num_rows``-row table into."""
    problem = make_random_problem(3, num_rows=max(num_rows, 1))
    if num_rows == 0:
        hierarchies = {
            name: problem.hierarchy(name).source
            for name in problem.quasi_identifier
        }
        problem = PreparedTable(
            problem.table.take([]), hierarchies, problem.quasi_identifier
        )
    return FrequencyEvaluator(problem, shard_rows=width).plan_scan().ranges


class TestPlanShards:
    """A scan's shards: the row ranges ``FrequencyEvaluator.plan_scan`` makes."""

    def test_non_dividing_width_gets_short_tail(self):
        assert plan_ranges(10, 4) == ((0, 4), (4, 8), (8, 10))

    def test_exact_division(self):
        assert plan_ranges(8, 4) == ((0, 4), (4, 8))

    def test_width_beyond_table_is_one_shard(self):
        assert plan_ranges(3, 100) == ((0, 3),)

    def test_empty_table_is_one_empty_range(self):
        assert plan_ranges(0, 4) == ((0, 0),)

    def test_ranges_partition_the_rows(self):
        ranges = plan_ranges(1_000, 7)
        assert ranges[0][0] == 0 and ranges[-1][1] == 1_000
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start

    def test_invalid_inputs(self):
        # A width is validated where it is configured.
        with pytest.raises(ValueError):
            ExecutionConfig(shard_rows=0)
        with pytest.raises(ValueError):
            ExecutionConfig(shard_rows=-1)

    def test_default_width(self):
        assert plan_ranges(1_000, None) == ((0, 1_000),)


class TestFromProblem:
    def test_attach_round_trips_the_table(self):
        problem = tiny_numeric_problem()
        store = SharedTableStore.from_problem(problem)
        try:
            attached = attach_problem(store.handle)
            assert attached.quasi_identifier == problem.quasi_identifier
            assert attached.table.num_rows == problem.table.num_rows
            for name in problem.quasi_identifier:
                original = problem.table.column(name)
                view = attached.table.column(name)
                np.testing.assert_array_equal(view.codes, original.codes)
                assert list(view.values) == list(original.values)
        finally:
            store.close()

    def test_attached_scan_is_bit_identical(self):
        problem = make_random_problem(21, num_rows=40)
        store = SharedTableStore.from_problem(problem)
        try:
            attached = attach_problem(store.handle)
            for node in problem.lattice().nodes():
                left = compute_frequency_set(problem, node)
                right = compute_frequency_set(attached, node)
                np.testing.assert_array_equal(left.key_codes, right.key_codes)
                np.testing.assert_array_equal(left.counts, right.counts)
        finally:
            store.close()

    def test_attached_view_does_not_copy(self):
        """Writes through the store's array are visible to the attacher."""
        problem = tiny_numeric_problem()
        store = SharedTableStore.from_problem(problem)
        try:
            attached = attach_problem(store.handle)
            name = problem.quasi_identifier[0]
            before = int(attached.table.column(name).codes[0])
            handle_spec = store.handle.columns[0]
            assert handle_spec.name == name
            # Poke the first code via the store's own view.
            store._columns[0][2][0] = before  # no-op write proves shared buf
            np.testing.assert_array_equal(
                attached.table.column(name).codes,
                store._columns[0][2],
            )
        finally:
            store.close()

    def test_handle_is_small(self):
        """The handle must not smuggle the code arrays along."""
        import pickle

        problem = tiny_numeric_problem()
        store = SharedTableStore.from_problem(problem)
        try:
            payload = pickle.dumps(store.handle)
            assert len(payload) < 64 * 1024
        finally:
            store.close()


class TestStreamingBuild:
    def _build(self):
        store = SharedTableStore()
        codes = store.allocate("q", 6)
        codes[:] = [0, 1, 1, 0, 1, 0]
        problem = store.build_problem(
            {"q": ["a", "b"]}, {"q": SuppressionHierarchy()}, ("q",)
        )
        return store, problem

    def test_build_problem_wraps_segments(self):
        store, problem = self._build()
        try:
            assert problem._shm_store is store
            assert problem.table.num_rows == 6
            fs = compute_frequency_set(problem, problem.bottom_node())
            assert fs.as_dict() == {("a",): 3, ("b",): 3}
        finally:
            store.close()

    def test_allocate_after_seal_is_an_error(self):
        store, _ = self._build()
        try:
            with pytest.raises(RuntimeError, match="sealed"):
                store.allocate("late", 3)
        finally:
            store.close()

    def test_duplicate_column_is_an_error(self):
        store = SharedTableStore()
        try:
            store.allocate("q", 3)
            with pytest.raises(ValueError, match="already allocated"):
                store.allocate("q", 3)
        finally:
            store.close()

    def test_handle_before_seal_is_an_error(self):
        store = SharedTableStore()
        try:
            store.allocate("q", 3)
            with pytest.raises(RuntimeError, match="no handle"):
                store.handle
        finally:
            store.close()

    def test_nbytes_accounts_allocations(self):
        store = SharedTableStore()
        try:
            store.allocate("a", 10)
            store.allocate("b", 5)
            assert store.nbytes() == 15 * np.dtype(np.int32).itemsize
        finally:
            store.close()


class TestClose:
    def test_close_is_idempotent(self):
        store = SharedTableStore.from_problem(tiny_numeric_problem())
        store.close()
        store.close()
        assert store.closed

    def test_closed_store_rejects_use(self):
        store = SharedTableStore.from_problem(tiny_numeric_problem())
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.handle
        with pytest.raises(RuntimeError, match="closed"):
            store.allocate("late", 3)

    def test_close_with_live_problem_views_unlinks_anyway(self):
        """A live shm-backed problem must not make close() raise; the
        segment is unlinked and a fresh attach by name fails."""
        from multiprocessing import shared_memory

        store = SharedTableStore()
        store.allocate("q", 4)[:] = [0, 0, 1, 1]
        problem = store.build_problem(
            {"q": ["x", "y"]}, {"q": SuppressionHierarchy()}, ("q",)
        )
        segment_name = store.handle.columns[0].segment
        store.close()
        # The problem's view still reads (mapping lives until it drops)...
        assert problem.table.num_rows == 4
        # ...but the backing object is gone for new attachers.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment_name)
