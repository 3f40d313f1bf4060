"""Dictionary-encoded columns.

Every column is stored as a numpy integer ``codes`` array plus an ordered
list of distinct ``values``; ``values[codes[i]]`` is the value of row ``i``.
This mirrors how a column-store (or a star schema with surrogate keys) would
hold low-cardinality categorical data, and it is the representation the whole
reproduction is built on:

* a generalization hierarchy compiles to per-level lookup arrays mapping base
  codes to generalized codes, so generalizing a column is ``lookup[codes]``;
* frequency sets (GROUP BY COUNT(*)) reduce to integer keying, never string
  hashing.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

#: dtype used for all code arrays.  int32 comfortably covers the paper's
#: cardinalities (max 31,953 distinct zipcodes) while halving memory vs int64.
CODE_DTYPE = np.int32


class Column:
    """One dictionary-encoded attribute of a relation.

    Parameters
    ----------
    codes:
        Integer array; ``codes[i]`` indexes into ``values``.
    values:
        Distinct values in code order.  Must contain no duplicates.
    validate:
        When true (default), check code bounds and value uniqueness.
    """

    __slots__ = ("_codes", "_values", "_value_index")

    def __init__(
        self,
        codes: np.ndarray | Sequence[int],
        values: Sequence[Hashable],
        *,
        validate: bool = True,
    ) -> None:
        codes = np.asarray(codes, dtype=CODE_DTYPE)
        if codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        values = list(values)
        if validate:
            if len(set(values)) != len(values):
                raise ValueError("dictionary values must be distinct")
            if codes.size and (codes.min() < 0 or codes.max() >= len(values)):
                raise ValueError("code out of range of the value dictionary")
        self._codes = codes
        self._codes.setflags(write=False)
        self._values = values
        self._value_index: dict[Hashable, int] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, raw: Iterable[Hashable]) -> "Column":
        """Encode a sequence of raw values, preserving first-seen order.

        First-seen ordering (rather than sorted order) keeps code assignment
        stable under row append and makes round-trips deterministic.
        """
        index: dict[Hashable, int] = {}
        codes: list[int] = []
        for value in raw:
            code = index.get(value)
            if code is None:
                code = len(index)
                index[value] = code
            codes.append(code)
        column = cls(
            np.asarray(codes, dtype=CODE_DTYPE), list(index), validate=False
        )
        column._value_index = index
        return column

    @classmethod
    def from_pool(cls, picks: np.ndarray, pool: Sequence[Hashable]) -> "Column":
        """Encode ``pool[picks[i]]`` for every row ``i`` without decoding a row.

        ``pool`` holds distinct values and ``picks`` indexes into it.  Codes
        are renumbered in first-seen order, so the column equals the one
        :meth:`from_values` builds from the decoded values.
        """
        picks = np.asarray(picks)
        first = np.full(len(pool), picks.size, dtype=np.intp)
        np.minimum.at(first, picks, np.arange(picks.size))
        seen = np.flatnonzero(first < picks.size)
        seen = seen[np.argsort(first[seen])]
        remap = np.zeros(len(pool), dtype=CODE_DTYPE)
        remap[seen] = np.arange(seen.size, dtype=CODE_DTYPE)
        return cls(remap[picks], [pool[pick] for pick in seen], validate=False)

    @classmethod
    def constant(cls, value: Hashable, length: int) -> "Column":
        """A column holding ``value`` in every one of ``length`` rows."""
        return cls(np.zeros(length, dtype=CODE_DTYPE), [value], validate=False)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def codes(self) -> np.ndarray:
        """The (read-only) integer code array."""
        return self._codes

    @property
    def values(self) -> list:
        """Distinct values, in code order.  Treat as read-only."""
        return self._values

    @property
    def cardinality(self) -> int:
        """Number of distinct values in the dictionary.

        Note this is the dictionary size; after selection some entries may be
        unreferenced.  Use :meth:`compact` to drop them.
        """
        return len(self._values)

    def __len__(self) -> int:
        return self._codes.size

    def __getitem__(self, row: int) -> Hashable:
        return self._values[self._codes[row]]

    def __iter__(self) -> Iterator[Hashable]:
        values = self._values
        return (values[code] for code in self._codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        preview = list(self)[:6]
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column({preview}{suffix}, n={len(self)}, card={self.cardinality})"

    def to_list(self) -> list:
        """Materialise the column as a plain Python list of raw values."""
        return [self._values[code] for code in self._codes]

    def code_of(self, value: Hashable) -> int:
        """Return the dictionary code of ``value``.

        Raises :class:`KeyError` if the value is not present.
        """
        if self._value_index is None:
            self._value_index = {v: i for i, v in enumerate(self._values)}
        return self._value_index[value]

    # ------------------------------------------------------------------
    # relational operations
    # ------------------------------------------------------------------
    def take(self, rows: np.ndarray) -> "Column":
        """Return the column restricted to ``rows`` (positions or bool mask)."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            codes = self._codes[rows]
        else:
            # an empty Python list arrives as float64; normalise to ints
            codes = self._codes.take(rows.astype(np.int64, copy=False))
        column = Column(codes, self._values, validate=False)
        column._value_index = self._value_index
        return column

    def map_codes(self, lookup: np.ndarray, values: Sequence[Hashable]) -> "Column":
        """Re-encode through ``lookup``: new code of row i is ``lookup[codes[i]]``.

        This is the generalization primitive: ``lookup`` is a hierarchy level's
        base-code → generalized-code array and ``values`` the generalized
        dictionary.
        """
        lookup = np.asarray(lookup, dtype=CODE_DTYPE)
        if lookup.shape[0] < len(self._values):
            raise ValueError(
                "lookup must cover the column dictionary: "
                f"{lookup.shape[0]} < {len(self._values)}"
            )
        return Column(lookup[self._codes], values, validate=False)

    def compact(self) -> "Column":
        """Drop unreferenced dictionary entries and renumber codes densely."""
        used, new_codes = np.unique(self._codes, return_inverse=True)
        values = [self._values[code] for code in used]
        return Column(new_codes.astype(CODE_DTYPE), values, validate=False)

    def concat(self, other: "Column") -> "Column":
        """Append ``other``'s rows below this column's rows."""
        merged_values = list(self._values)
        index = {value: code for code, value in enumerate(merged_values)}
        remap = np.empty(len(other._values), dtype=CODE_DTYPE)
        for code, value in enumerate(other._values):
            mapped = index.get(value)
            if mapped is None:
                mapped = len(merged_values)
                merged_values.append(value)
                index[value] = mapped
            remap[code] = mapped
        codes = np.concatenate([self._codes, remap[other._codes]])
        return Column(codes, merged_values, validate=False)
