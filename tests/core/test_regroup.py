"""Tests for the weighted mode of the group kernel (rollup, projection, merge)."""

import numpy as np

from repro.relational.groupby import group_by_codes


def _as_map(keys: np.ndarray, sums: np.ndarray) -> dict:
    return {
        tuple(int(v) for v in keys[g]): int(sums[g])
        for g in range(keys.shape[0])
    }


class TestRegroupWeighted:
    def test_sums_match_python(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, 300).astype(np.int32)
        b = rng.integers(0, 3, 300).astype(np.int32)
        weights = rng.integers(1, 9, 300).astype(np.int64)
        keys, sums = group_by_codes([a, b], [5, 3], weights=weights)
        expected: dict = {}
        for x, y, w in zip(a.tolist(), b.tolist(), weights.tolist()):
            expected[(x, y)] = expected.get((x, y), 0) + w
        assert _as_map(keys, sums) == expected

    def test_dense_and_sparse_paths_agree(self):
        rng = np.random.default_rng(1)
        arrays = [rng.integers(0, 4, 120).astype(np.int32) for _ in range(3)]
        weights = rng.integers(1, 5, 120).astype(np.int64)
        dense_keys, dense_sums = group_by_codes(arrays, [4, 4, 4], weights=weights)
        # Oversized radices force the np.unique(axis=0) fallback.
        big = 2 ** 31
        sparse_keys, sparse_sums = group_by_codes(
            arrays, [big, big, big], weights=weights
        )
        assert _as_map(dense_keys, dense_sums) == _as_map(
            sparse_keys, sparse_sums
        )

    def test_empty_input(self):
        keys, sums = group_by_codes(
            [np.empty(0, dtype=np.int32)], [3], weights=np.empty(0, dtype=np.int64)
        )
        assert keys.shape == (0, 1)
        assert sums.size == 0

    def test_no_keys_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            group_by_codes([], [], weights=np.empty(0))

    def test_total_weight_preserved(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 7, 500).astype(np.int32)
        weights = rng.integers(1, 100, 500).astype(np.int64)
        _, sums = group_by_codes([a], [7], weights=weights)
        assert sums.sum() == weights.sum()

    def test_large_counts_exact(self):
        """Weights are summed in int64; verify exactness at realistic
        magnitudes (paper: 4.6M rows)."""
        a = np.zeros(10, dtype=np.int32)
        weights = np.full(10, 1_000_000_007, dtype=np.int64)
        _, sums = group_by_codes([a], [1], weights=weights)
        assert int(sums[0]) == 10 * 1_000_000_007

    def test_sums_beyond_float64_precision_exact(self):
        """2**53 + 2 has no float64 representation: a sum that passes
        through float64 (a weighted ``np.bincount``) returns 2**53."""
        a = np.zeros(2, dtype=np.int32)
        weights = np.array([2**53 + 1, 1], dtype=np.int64)
        # Radix 1 leaves no key column; 2 fits the bincount, 3 and 2**31
        # sort, and 2**63 exceeds the mixed-radix key and groups whole rows.
        for radix in (1, 2, 3, 2**31, 2**63):
            _, sums = group_by_codes([a], [radix], weights=weights)
            assert sums.tolist() == [2**53 + 2]
