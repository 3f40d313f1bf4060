"""Abstract hierarchy interface and its compiled (vectorised) form.

The two key objects:

* :class:`Hierarchy` — defines γ (one generalization step) as
  ``generalize(value, level)`` returning the value's generalization in the
  level-``level`` domain.  ``generalize(v, 0) == v`` always; composing steps
  gives γ⁺ (implied generalizations).
* :class:`CompiledHierarchy` — the hierarchy evaluated over a concrete base
  domain (the distinct values actually present in a column), as numpy lookup
  arrays: ``level_lookup(l)[base_code]`` is the level-l code of a base value.
  This makes full-domain generalization a fancy-index, and rollup between
  any two comparable levels a second fancy-index
  (:meth:`CompiledHierarchy.mapping_between`).
"""

from __future__ import annotations

import abc
from typing import Hashable, Sequence

import numpy as np

from repro.relational.column import CODE_DTYPE


class HierarchyError(ValueError):
    """Raised for malformed hierarchies or out-of-domain values."""


class Hierarchy(abc.ABC):
    """A domain generalization hierarchy for one attribute."""

    @property
    @abc.abstractmethod
    def height(self) -> int:
        """Number of generalization steps; domains are levels ``0..height``."""

    @property
    def num_levels(self) -> int:
        return self.height + 1

    @abc.abstractmethod
    def generalize(self, value: Hashable, level: int) -> Hashable:
        """Map ``value`` (from the base domain) to its level-``level`` domain.

        Must be the identity at level 0 and consistent along the chain:
        values that coincide at level l must coincide at every level above l
        (γ is many-to-one, so generalization never re-splits groups).
        """

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.height:
            raise HierarchyError(
                f"level {level} out of range [0, {self.height}] for {self!r}"
            )

    def chain(self, value: Hashable) -> list[Hashable]:
        """The full γ⁺ chain of ``value``: its image at every level."""
        return [self.generalize(value, level) for level in range(self.num_levels)]

    def compile(self, base_values: Sequence[Hashable]) -> "CompiledHierarchy":
        """Evaluate this hierarchy over a concrete, ordered base domain.

        ``base_values`` is typically a column's dictionary
        (:attr:`repro.relational.column.Column.values`).  Raises
        :class:`HierarchyError` if generalization is inconsistent (a level-l
        group split again at level l+1).
        """
        lookups: list[np.ndarray] = [
            np.arange(len(base_values), dtype=CODE_DTYPE)
        ]
        level_values: list[list[Hashable]] = [list(base_values)]
        for level in range(1, self.num_levels):
            index: dict[Hashable, int] = {}
            lookup = np.empty(len(base_values), dtype=CODE_DTYPE)
            for base_code, base_value in enumerate(base_values):
                generalized = self.generalize(base_value, level)
                code = index.get(generalized)
                if code is None:
                    code = len(index)
                    index[generalized] = code
                lookup[base_code] = code
            lookups.append(lookup)
            level_values.append(list(index))
        compiled = CompiledHierarchy(self, lookups, level_values)
        compiled.validate()
        return compiled


class CompiledHierarchy:
    """A :class:`Hierarchy` bound to a concrete base domain.

    Parameters
    ----------
    source:
        The hierarchy this was compiled from (kept for introspection).
    lookups:
        ``lookups[l][base_code]`` is the level-l code of the base value with
        code ``base_code``.  ``lookups[0]`` is the identity.
    level_values:
        ``level_values[l][code]`` decodes a level-l code to its value.
    """

    __slots__ = ("source", "_lookups", "_level_values", "_between_cache")

    def __init__(
        self,
        source: Hierarchy,
        lookups: Sequence[np.ndarray],
        level_values: Sequence[Sequence[Hashable]],
    ) -> None:
        self.source = source
        self._lookups = [np.asarray(a, dtype=CODE_DTYPE) for a in lookups]
        self._level_values = [list(v) for v in level_values]
        self._between_cache: dict[tuple[int, int], np.ndarray] = {}

    @property
    def height(self) -> int:
        return len(self._lookups) - 1

    @property
    def num_levels(self) -> int:
        return len(self._lookups)

    @property
    def base_size(self) -> int:
        """Cardinality of the base domain the hierarchy was compiled over."""
        return self._lookups[0].shape[0]

    def cardinality(self, level: int) -> int:
        """Number of distinct values in the level-``level`` domain."""
        return len(self._level_values[level])

    def level_lookup(self, level: int) -> np.ndarray:
        """Base-code → level-``level``-code array."""
        return self._lookups[level]

    def level_values(self, level: int) -> list:
        """Distinct values of the level-``level`` domain (code order)."""
        return self._level_values[level]

    def generalize_codes(self, base_codes: np.ndarray, level: int) -> np.ndarray:
        """Base codes generalized to ``level``.

        Builds the scans' stored columns (``PreparedTable.generalized_codes``)
        and the suppression keys of ``core.generalize.apply_generalization``.
        """
        return self._lookups[level][base_codes]

    def mapping_between(self, from_level: int, to_level: int) -> np.ndarray:
        """Level-``from_level``-code → level-``to_level``-code array.

        Requires ``from_level <= to_level`` (rollup only goes up).  This is
        the γ (or γ⁺) function between intermediate domains, derived from the
        base lookups; cached because rollup calls it in inner loops.
        """
        if from_level > to_level:
            raise HierarchyError(
                f"cannot map down the hierarchy: {from_level} -> {to_level}"
            )
        key = (from_level, to_level)
        cached = self._between_cache.get(key)
        if cached is not None:
            return cached
        mapping = np.empty(self.cardinality(from_level), dtype=CODE_DTYPE)
        # For every base value, its from-level code maps to its to-level
        # code; consistency (validated at compile time) guarantees all base
        # values sharing a from-code agree on the to-code.
        mapping[self._lookups[from_level]] = self._lookups[to_level]
        self._between_cache[key] = mapping
        return mapping

    def validate(self) -> None:
        """Check structural invariants; raise :class:`HierarchyError` if broken.

        1. Level 0 is the identity over the base domain.
        2. Monotone coarsening: if two base values share a code at level l,
           they share a code at every level above l.
        3. Every lookup covers the whole base domain.
        """
        base_size = self.base_size
        if not np.array_equal(
            self._lookups[0], np.arange(base_size, dtype=CODE_DTYPE)
        ):
            raise HierarchyError("level 0 must be the identity mapping")
        for level, lookup in enumerate(self._lookups):
            if lookup.shape[0] != base_size:
                raise HierarchyError(
                    f"level {level} lookup covers {lookup.shape[0]} values, "
                    f"base domain has {base_size}"
                )
            cardinality = len(self._level_values[level])
            if lookup.size and (lookup.min() < 0 or lookup.max() >= cardinality):
                raise HierarchyError(f"level {level} lookup code out of range")
        for level in range(1, self.num_levels):
            below, above = self._lookups[level - 1], self._lookups[level]
            # group-by below-code: all members must share the above-code
            seen: dict[int, int] = {}
            for below_code, above_code in zip(below.tolist(), above.tolist()):
                previous = seen.setdefault(below_code, above_code)
                if previous != above_code:
                    raise HierarchyError(
                        f"inconsistent generalization between levels "
                        f"{level - 1} and {level}: group {below_code} splits"
                    )

    def __repr__(self) -> str:
        cards = [self.cardinality(level) for level in range(self.num_levels)]
        return f"CompiledHierarchy(height={self.height}, cardinalities={cards})"
