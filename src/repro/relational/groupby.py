"""Vectorised GROUP BY — the frequency-set primitive.

The paper (Section 1.1) computes frequency sets with::

    SELECT COUNT(*) FROM T GROUP BY q1, ..., qn

and rolls them up with ``SUM(count) ... GROUP BY``.  Both run here over
dictionary codes through one kernel, :func:`group_by_codes`.  It builds one
mixed-radix integer key per row in a single pass, reading each column
through an optional code lookup on the way (the mapping between two levels
in a rollup; a scan passes generalized columns), then counts the keys: with
``np.bincount`` over the whole key space when that space is no larger than
the number of rows, and by sorting (``np.unique``) otherwise.  Both give
ascending keys, so the result does not depend on which one ran.  Key
spaces beyond 2**62 group whole code rows with ``np.unique(axis=0)``.
Group keys come back as a 2-D code matrix plus per-column dictionaries, so
downstream code (rollup, k-anonymity checks) never touches raw values.
"""

from __future__ import annotations

import math
import time
from typing import Hashable, Sequence

import numpy as np

from repro import obs
from repro.relational.column import CODE_DTYPE, Column
from repro.relational.table import Table

#: Beyond this product of cardinalities the mixed-radix key would overflow
#: int64, so rows are grouped with np.unique over whole code rows instead.
_DENSE_KEY_LIMIT = 1 << 62


class GroupByResult:
    """The result of a GROUP BY COUNT(*) query.

    Attributes
    ----------
    names:
        The grouping attribute names, in query order.
    key_codes:
        ``(num_groups, num_keys)`` int array; row g holds the dictionary
        codes of group g's value combination.
    dictionaries:
        One list of distinct values per key column; ``dictionaries[j][code]``
        decodes column j.
    counts:
        ``(num_groups,)`` int64 array of group sizes.
    """

    __slots__ = ("names", "key_codes", "dictionaries", "counts")

    def __init__(
        self,
        names: Sequence[str],
        key_codes: np.ndarray,
        dictionaries: Sequence[Sequence[Hashable]],
        counts: np.ndarray,
    ) -> None:
        self.names = tuple(names)
        self.key_codes = key_codes
        self.dictionaries = [list(d) for d in dictionaries]
        self.counts = counts

    @property
    def num_groups(self) -> int:
        return int(self.counts.shape[0])

    def min_count(self) -> int:
        """Smallest group size; 0 for an empty input.

        The 0 means "no groups", not "a group of size zero" — k-anonymity
        call sites must treat an empty relation as vacuously k-anonymous
        rather than comparing this against k (see
        :meth:`repro.core.anonymity.FrequencySet.is_k_anonymous` and
        DESIGN.md, "Empty-table semantics").
        """
        return int(self.counts.min()) if self.counts.size else 0

    def total(self) -> int:
        return int(self.counts.sum())

    def group_values(self, group: int) -> tuple:
        """Decode group ``group``'s value combination to raw values."""
        return tuple(
            self.dictionaries[j][self.key_codes[group, j]]
            for j in range(len(self.names))
        )

    def as_dict(self) -> dict[tuple, int]:
        """Materialise as {value-combination: count} — handy in tests."""
        return {
            self.group_values(g): int(self.counts[g])
            for g in range(self.num_groups)
        }

    def to_table(self, count_name: str = "count") -> Table:
        """Render as a relation with the key columns plus a count column.

        This is the relational representation ``F1`` used in the paper's
        rollup example (Section 3).
        """
        columns = [
            Column(self.key_codes[:, j].astype(CODE_DTYPE), self.dictionaries[j])
            for j in range(len(self.names))
        ]
        columns.append(Column.from_values(int(c) for c in self.counts))
        from repro.relational.schema import Schema  # local import avoids cycle

        schema = Schema.of(*self.names, count_name)
        return Table(schema, columns)


def group_by_codes(
    code_arrays: Sequence[np.ndarray],
    radices: Sequence[int],
    *,
    lookups: Sequence[np.ndarray | None] | None = None,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by their code combination: COUNT(*), or SUM(weights).

    Row i's key in column j is ``lookups[j][code_arrays[j][i]]``, or
    ``code_arrays[j][i]`` itself when there is no lookup for column j, and
    lies in ``[0, radices[j])``.  A rollup passes the mapping between two
    levels; a scan passes only a level lookup over the column budget.

    Returns ``(key_codes, counts)``: the ``(num_groups, num_keys)`` matrix
    of distinct keys in ascending order, and each group's row count — or,
    with ``weights`` (positive, as group sizes are), the exact int64 sum of
    its rows' weights, which is the ``SUM(count) ... GROUP BY`` of a rollup
    or a partial-set merge.  The one group-and-count kernel behind scans,
    rollups, projections and merges.
    """
    if not code_arrays:
        raise ValueError("group_by_codes requires at least one key column")
    if lookups is None:
        lookups = [None] * len(code_arrays)
    num_rows = code_arrays[0].shape[0]
    if num_rows == 0:
        empty = np.empty((0, len(code_arrays)), dtype=CODE_DTYPE)
        return empty, np.empty(0, dtype=np.int64)

    kind = "count" if weights is None else "weighted"
    with obs.span("groupby", kind=kind, rows=num_rows) as sp:
        started = time.perf_counter()
        # Python ints: radices arriving as numpy integers would wrap at
        # int64 while multiplying, and a wrapped (small or negative) key
        # space would pass the limit below and corrupt the keys.
        radices = [max(int(radix), 1) for radix in radices]
        space = math.prod(radices)
        if space > _DENSE_KEY_LIMIT:
            path = "rows"
            stacked = np.column_stack([
                codes if lookup is None else lookup[codes]
                for codes, lookup in zip(code_arrays, lookups)
            ])
            unique_rows, counts = _unique_sums(stacked, weights, axis=0)
            key_codes = unique_rows.astype(CODE_DTYPE)
        else:
            # Below 2**31 every key, stride and radix fits int32, which
            # halves the memory each pass over the keys moves.
            key_dtype = np.int32 if space < 1 << 31 else np.int64
            keys = _mixed_radix_keys(code_arrays, radices, lookups, key_dtype)
            if space <= num_rows:
                path = "bincount"
                unique_keys, counts = _dense_sums(keys, space, weights)
            else:
                path = "sort"
                unique_keys, counts = _unique_sums(keys, weights)
            key_codes = _decode_keys(unique_keys, radices)
        if sp:
            sp.set(path=path, groups=int(counts.shape[0]))
        obs.observe("latency.groupby_seconds", time.perf_counter() - started)
    return key_codes, counts


def _mixed_radix_keys(
    code_arrays: Sequence[np.ndarray],
    radices: Sequence[int],
    lookups: Sequence[np.ndarray | None],
    dtype: type[np.signedinteger],
) -> np.ndarray:
    """One key per row: the sum of each column's code times its stride.

    The last column has stride 1 and each earlier one the product of the
    radices after it, so ascending keys are the key rows in lexicographic
    order.  A column of radix 1 always holds code 0 and is skipped; a
    lookup is pre-multiplied by its stride, so a mapped column costs one
    gather and one add, and no mapped code array is materialised.
    """
    keys: np.ndarray | None = None
    stride = 1
    for codes, radix, lookup in zip(
        reversed(code_arrays), reversed(radices), reversed(lookups)
    ):
        if radix == 1:
            continue
        if lookup is None:
            term = np.multiply(codes, stride, dtype=dtype)
        else:
            # Converting the codes to intp first is faster than letting
            # the gather convert them itself.
            scaled = np.multiply(lookup, stride, dtype=dtype)
            term = scaled[codes.astype(np.intp)]
        if keys is None:
            keys = term
        else:
            keys += term
        stride *= radix
    if keys is None:
        keys = np.zeros(code_arrays[0].shape[0], dtype=dtype)
    return keys


def _dense_sums(
    keys: np.ndarray, space: int, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-key counts (or weight sums) through an array over the key space."""
    if weights is None:
        sums = np.bincount(keys, minlength=space)
    else:
        sums = np.zeros(space, dtype=np.int64)
        np.add.at(sums, keys, weights)
    present = np.flatnonzero(sums)
    return present, sums[present]


def _unique_sums(
    keys: np.ndarray, weights: np.ndarray | None, axis: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys (or key rows) by sorting, with counts or weight sums."""
    if weights is None:
        return np.unique(keys, return_counts=True, axis=axis)
    unique, inverse = np.unique(keys, return_inverse=True, axis=axis)
    sums = np.zeros(unique.shape[0], dtype=np.int64)
    np.add.at(sums, inverse, weights)
    return unique, sums


def _decode_keys(unique_keys: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Split mixed-radix keys back into one code column per key column."""
    key_codes = np.zeros((unique_keys.shape[0], len(radices)), dtype=CODE_DTYPE)
    remaining = unique_keys
    for position in range(len(radices) - 1, -1, -1):
        if radices[position] > 1:
            remaining, key_codes[:, position] = np.divmod(
                remaining, radices[position]
            )
    return key_codes


def group_by_count(table: Table, names: Sequence[str]) -> GroupByResult:
    """``SELECT COUNT(*) FROM table GROUP BY names`` (one full scan)."""
    columns = [table.column(name) for name in names]
    code_arrays = [column.codes for column in columns]
    radices = [column.cardinality for column in columns]
    key_codes, counts = group_by_codes(code_arrays, radices)
    dictionaries = [column.values for column in columns]
    return GroupByResult(names, key_codes, dictionaries, counts)
