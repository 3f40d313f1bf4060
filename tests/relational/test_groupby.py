"""Tests for repro.relational.groupby — the frequency-set primitive."""

import numpy as np
import pytest

from repro import obs
from repro.obs import InMemorySink, Tracer
from repro.relational.groupby import group_by_codes, group_by_count
from repro.relational.table import Table


def traced_group_by_codes(code_arrays, radices):
    """``group_by_codes`` plus the counting path its span reports."""
    sink = InMemorySink()
    with obs.use_tracer(Tracer(sink)):
        keys, counts = group_by_codes(code_arrays, radices)
    (span,) = sink.named("groupby")
    return keys, counts, span.attrs["path"]


def patients_like() -> Table:
    return Table.from_rows(
        ["sex", "zip"],
        [
            ("M", "53715"),
            ("F", "53715"),
            ("M", "53703"),
            ("M", "53703"),
            ("F", "53706"),
            ("F", "53706"),
        ],
    )


class TestGroupByCount:
    def test_single_key(self):
        result = group_by_count(patients_like(), ["sex"])
        assert result.as_dict() == {("M",): 3, ("F",): 3}

    def test_two_keys(self):
        result = group_by_count(patients_like(), ["sex", "zip"])
        assert result.as_dict() == {
            ("M", "53715"): 1,
            ("F", "53715"): 1,
            ("M", "53703"): 2,
            ("F", "53706"): 2,
        }

    def test_paper_example_not_2_anonymous(self):
        """Section 1.1: Patients is not 2-anonymous wrt ⟨Sex, Zipcode⟩."""
        result = group_by_count(patients_like(), ["sex", "zip"])
        assert result.min_count() < 2

    def test_total_preserved(self):
        result = group_by_count(patients_like(), ["sex", "zip"])
        assert result.total() == 6

    def test_min_count_empty(self):
        table = Table.from_rows(["a"], [])
        assert group_by_count(table, ["a"]).min_count() == 0

    def test_num_groups(self):
        assert group_by_count(patients_like(), ["zip"]).num_groups == 3

    def test_group_values_decodes(self):
        result = group_by_count(patients_like(), ["sex"])
        values = {result.group_values(g) for g in range(result.num_groups)}
        assert values == {("M",), ("F",)}

    def test_to_table_round_trip(self):
        result = group_by_count(patients_like(), ["sex", "zip"])
        table = result.to_table()
        assert table.schema.names == ("sex", "zip", "count")
        assert sum(row[-1] for row in table.iter_rows()) == 6

    def test_key_order_matters_for_names_not_counts(self):
        forward = group_by_count(patients_like(), ["sex", "zip"]).as_dict()
        backward = group_by_count(patients_like(), ["zip", "sex"]).as_dict()
        assert {(s, z): c for (z, s), c in backward.items()} == forward


class TestGroupByCodes:
    def test_counts_match_python(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, size=500).astype(np.int32)
        b = rng.integers(0, 7, size=500).astype(np.int32)
        keys, counts = group_by_codes([a, b], [4, 7])
        expected: dict[tuple[int, int], int] = {}
        for x, y in zip(a.tolist(), b.tolist()):
            expected[(x, y)] = expected.get((x, y), 0) + 1
        actual = {
            (int(keys[g, 0]), int(keys[g, 1])): int(counts[g])
            for g in range(keys.shape[0])
        }
        assert actual == expected

    def test_empty_input(self):
        keys, counts = group_by_codes([np.empty(0, dtype=np.int32)], [3])
        assert keys.shape == (0, 1)
        assert counts.size == 0

    def test_no_keys_rejected(self):
        with pytest.raises(ValueError):
            group_by_codes([], [])

    def test_huge_radix_fallback_matches_dense(self):
        """The >int64 key-space fallback must agree with the dense path."""
        rng = np.random.default_rng(1)
        arrays = [rng.integers(0, 5, size=200).astype(np.int32) for _ in range(3)]
        dense_keys, dense_counts = group_by_codes(arrays, [5, 5, 5])
        # Force the fallback by claiming astronomically large radices.
        big = 2 ** 31
        sparse_keys, sparse_counts = group_by_codes(arrays, [big, big, big])
        dense = {
            tuple(dense_keys[g]): int(dense_counts[g])
            for g in range(dense_keys.shape[0])
        }
        sparse = {
            tuple(sparse_keys[g]): int(sparse_counts[g])
            for g in range(sparse_keys.shape[0])
        }
        assert dense == sparse

    @pytest.mark.parametrize(
        "radix, path", [(11, "bincount"), (12, "bincount"), (13, "sort")]
    )
    def test_key_space_against_rows_picks_the_counting_path(self, radix, path):
        """A key space up to the row count is counted densely, a larger one
        by sorting; both give the same ascending groups."""
        codes = np.array([0, 5, 3, 5, 10, 0, 5, 1, 3, 3, 10, 5], dtype=np.int32)
        keys, counts, taken = traced_group_by_codes([codes], [radix])
        assert taken == path
        assert keys[:, 0].tolist() == [0, 1, 3, 5, 10]
        assert counts.tolist() == [2, 1, 3, 4, 2]
        assert keys.dtype == np.int32 and counts.dtype == np.int64

    @pytest.mark.parametrize("radix", [2**31 - 1, 2**31, 2**31 + 1])
    def test_radix_at_the_int32_key_boundary(self, radix):
        """Keys and radices near 2**31 decode without overflow, whichever
        key width is chosen."""
        top = 2**31 - 2
        codes = np.array([top, 0, top, 7], dtype=np.int32)
        keys, counts, path = traced_group_by_codes([codes], [radix])
        assert path == "sort"
        assert keys[:, 0].tolist() == [0, 7, top]
        assert counts.tolist() == [1, 1, 2]

    def test_counts_sum_to_rows(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, size=1000).astype(np.int32)
        _, counts = group_by_codes([a], [3])
        assert counts.sum() == 1000

    def test_numpy_radix_product_overflow_forces_fallback(self):
        """Regression: np.int64 radices whose product wraps at int64.

        2**32 * 2**32 == 2**64 wraps to exactly 0 under numpy int64
        arithmetic — small enough to pass the ``_DENSE_KEY_LIMIT`` guard
        and silently corrupt the dense mixed-radix keys.  The cardinality
        product must accumulate in Python ints so the guard sees 2**64
        and groups whole rows instead.
        """
        radices = [np.int64(2**32), np.int64(2**32)]
        rng = np.random.default_rng(3)
        arrays = [rng.integers(0, 4, size=100).astype(np.int32) for _ in range(2)]
        sparse_keys, sparse_counts, path = traced_group_by_codes(arrays, radices)
        assert path == "rows"
        dense_keys, dense_counts = group_by_codes(arrays, [4, 4])
        as_dict = lambda keys, counts: {
            tuple(keys[g]): int(counts[g]) for g in range(keys.shape[0])
        }
        assert as_dict(sparse_keys, sparse_counts) == as_dict(
            dense_keys, dense_counts
        )

    def test_numpy_radix_negative_wrap_forces_fallback(self):
        """Two ~2**31.5 radices wrap to a *negative* int64 product.

        A negative wrapped product also passes a naive ``> limit`` check;
        the Python-int accumulation sees the true ~2**63 product instead.
        """
        radix = np.int64(3_037_000_500)  # just above isqrt(2**63): square wraps < 0
        radices = [radix, radix]
        rng = np.random.default_rng(4)
        arrays = [rng.integers(0, 3, size=60).astype(np.int32) for _ in range(2)]
        _, counts, path = traced_group_by_codes(arrays, radices)
        assert path == "rows"
        assert counts.sum() == 60
