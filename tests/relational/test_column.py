"""Tests for repro.relational.column."""

import numpy as np
import pytest

from repro.relational.column import CODE_DTYPE, Column


class TestConstruction:
    def test_from_values_round_trip(self):
        column = Column.from_values(["a", "b", "a", "c"])
        assert column.to_list() == ["a", "b", "a", "c"]

    def test_from_values_first_seen_order(self):
        column = Column.from_values(["z", "a", "z", "m"])
        assert column.values == ["z", "a", "m"]

    def test_cardinality(self):
        assert Column.from_values([1, 1, 2, 3]).cardinality == 3

    def test_constant(self):
        column = Column.constant("*", 4)
        assert column.to_list() == ["*"] * 4
        assert column.cardinality == 1

    @pytest.mark.parametrize(
        "picks", [[2, 0, 2, 3, 0], [3, 3, 3], [1, 0, 1, 2, 3, 2], []]
    )
    def test_from_pool_matches_from_values(self, picks):
        pool = ["a", "b", "c", "d"]
        column = Column.from_pool(np.array(picks, dtype=np.int64), pool)
        expected = Column.from_values([pool[pick] for pick in picks])
        assert column.codes.dtype == CODE_DTYPE
        assert column.codes.tolist() == expected.codes.tolist()
        assert column.values == expected.values

    def test_explicit_codes(self):
        column = Column(np.array([0, 1, 0]), ["x", "y"])
        assert column.to_list() == ["x", "y", "x"]

    def test_duplicate_dictionary_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Column(np.array([0]), ["x", "x"])

    def test_code_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Column(np.array([0, 5]), ["x", "y"])

    def test_two_dimensional_codes_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Column(np.zeros((2, 2)), ["x"])

    def test_empty_column(self):
        column = Column.from_values([])
        assert len(column) == 0
        assert column.to_list() == []


class TestAccess:
    def test_getitem(self):
        column = Column.from_values(["a", "b"])
        assert column[1] == "b"

    def test_iter(self):
        assert list(Column.from_values([3, 1, 3])) == [3, 1, 3]

    def test_codes_are_read_only(self):
        column = Column.from_values(["a", "b"])
        with pytest.raises(ValueError):
            column.codes[0] = 1

    def test_codes_dtype(self):
        assert Column.from_values(["a"]).codes.dtype == CODE_DTYPE

    def test_code_of(self):
        column = Column.from_values(["a", "b", "c"])
        assert column.code_of("b") == 1

    def test_code_of_missing_raises(self):
        with pytest.raises(KeyError):
            Column.from_values(["a"]).code_of("zz")

    def test_equality_by_values(self):
        left = Column.from_values(["a", "b"])
        right = Column(np.array([1, 0]), ["b", "a"])
        assert left == right

    def test_inequality_different_lengths(self):
        assert Column.from_values(["a"]) != Column.from_values(["a", "a"])


class TestOperations:
    def test_take_positions(self):
        column = Column.from_values(["a", "b", "c"]).take(np.array([2, 0]))
        assert column.to_list() == ["c", "a"]

    def test_take_boolean_mask(self):
        column = Column.from_values(["a", "b", "c"])
        taken = column.take(np.array([True, False, True]))
        assert taken.to_list() == ["a", "c"]

    def test_map_codes_generalizes(self):
        column = Column.from_values(["53715", "53710", "53703"])
        lookup = np.array([0, 0, 1])  # first two merge
        mapped = column.map_codes(lookup, ["5371*", "5370*"])
        assert mapped.to_list() == ["5371*", "5371*", "5370*"]

    def test_map_codes_requires_full_coverage(self):
        column = Column.from_values(["a", "b", "c"])
        with pytest.raises(ValueError, match="cover"):
            column.map_codes(np.array([0]), ["x"])

    def test_compact_drops_unreferenced(self):
        column = Column.from_values(["a", "b", "c"]).take(np.array([0, 2]))
        compacted = column.compact()
        assert compacted.cardinality == 2
        assert compacted.to_list() == ["a", "c"]

    def test_concat_merges_dictionaries(self):
        left = Column.from_values(["a", "b"])
        right = Column.from_values(["b", "c"])
        merged = left.concat(right)
        assert merged.to_list() == ["a", "b", "b", "c"]
        assert merged.cardinality == 3

    def test_concat_empty(self):
        left = Column.from_values(["a"])
        merged = left.concat(Column.from_values([]))
        assert merged.to_list() == ["a"]

    def test_repr_mentions_size(self):
        assert "n=2" in repr(Column.from_values(["a", "b"]))
