"""The anonymization problem instance: table + quasi-identifier + hierarchies.

:class:`PreparedTable` binds a relation to the domain generalization
hierarchies of its quasi-identifier attributes, compiling each hierarchy over
the column's actual value dictionary.  Every algorithm takes a
``PreparedTable`` (plus ``k``); the compiled lookups make both "scan and
group at level ℓ" and "roll a frequency set up a level" single fancy-index
operations.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

import numpy as np

from repro.hierarchy.base import CompiledHierarchy, Hierarchy
from repro.hierarchy.dimension import dimension_table
from repro.lattice.lattice import GeneralizationLattice
from repro.lattice.node import LatticeNode
from repro.relational.column import CODE_DTYPE
from repro.relational.star import StarSchema
from repro.relational.table import Table

#: Bytes a problem may hold in generalized code columns
#: (:meth:`PreparedTable.generalized_codes`).  A column that does not fit
#: is not stored, and its scans gather through the level lookup instead.
GENERALIZED_COLUMN_BUDGET = 32 << 20


class _ColumnMemo:
    """Generalized code columns by ``(attribute, level)``, and their bytes."""

    def __init__(self) -> None:
        self.columns: dict[tuple[str, int], np.ndarray] = {}
        self.nbytes = 0
        self.lock = threading.Lock()


class PreparedTable:
    """A table prepared for k-anonymization over a quasi-identifier.

    Parameters
    ----------
    table:
        The microdata relation T (a multiset of tuples).
    hierarchies:
        Mapping from attribute name to its generalization hierarchy.  Both
        abstract :class:`~repro.hierarchy.base.Hierarchy` objects (compiled
        here over the column dictionary) and pre-compiled hierarchies are
        accepted.
    quasi_identifier:
        The QI attribute order; defaults to ``hierarchies``' key order.  A
        subset of the hierarchy keys may be given to anonymize over fewer
        attributes (the Figure 10 sweeps do exactly this).
    """

    def __init__(
        self,
        table: Table,
        hierarchies: Mapping[str, Hierarchy | CompiledHierarchy],
        quasi_identifier: Sequence[str] | None = None,
    ) -> None:
        if quasi_identifier is None:
            quasi_identifier = list(hierarchies)
        missing = [name for name in quasi_identifier if name not in hierarchies]
        if missing:
            raise ValueError(f"no hierarchy for quasi-identifier attributes {missing}")
        self._table = table
        self._qi = tuple(quasi_identifier)
        self._compiled: dict[str, CompiledHierarchy] = {}
        for name in self._qi:
            hierarchy = hierarchies[name]
            column = table.column(name)  # raises if the attribute is missing
            if isinstance(hierarchy, CompiledHierarchy):
                if hierarchy.base_size != column.cardinality:
                    raise ValueError(
                        f"compiled hierarchy for {name!r} covers "
                        f"{hierarchy.base_size} values, column has "
                        f"{column.cardinality}"
                    )
                self._compiled[name] = hierarchy
            else:
                self._compiled[name] = hierarchy.compile(column.values)
        self._memo = _ColumnMemo()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def table(self) -> Table:
        return self._table

    @property
    def quasi_identifier(self) -> tuple[str, ...]:
        return self._qi

    @property
    def num_rows(self) -> int:
        return self._table.num_rows

    @property
    def cache_fingerprint(self) -> tuple:
        """Identity of the prepared data, for frequency-set cache binding.

        Two problems share a fingerprint exactly when they share the same
        table object and the same compiled hierarchies — which is what
        makes their frequency sets interchangeable.  QI-subset views from
        :meth:`with_quasi_identifier` share both, so a cache filled under
        one view serves the others.
        """
        return (
            id(self._table),
            tuple(sorted((name, id(h)) for name, h in self._compiled.items())),
        )

    def hierarchy(self, attribute: str) -> CompiledHierarchy:
        try:
            return self._compiled[attribute]
        except KeyError:
            raise KeyError(
                f"{attribute!r} is not a quasi-identifier attribute "
                f"(have {list(self._qi)})"
            ) from None

    def generalized_codes(self, attribute: str, level: int) -> np.ndarray | None:
        """``attribute``'s whole code column at ``level``, or None.

        Built on first use with :meth:`CompiledHierarchy.generalize_codes`,
        as uint8 or uint16 where the level's codes fit (else the code dtype),
        and kept as long as the problem (views from :meth:`with_quasi_identifier`
        share it).  None at level 0 (scans read the base codes), at a level
        of one value (the kernel skips it), and for a column that would
        take the stored ones past :data:`GENERALIZED_COLUMN_BUDGET`.
        """
        memo = self._memo
        column = memo.columns.get((attribute, level))
        hierarchy = self.hierarchy(attribute)
        cardinality = hierarchy.cardinality(level)
        if column is not None or not level or cardinality == 1:
            return column
        narrow = np.uint8 if cardinality <= 1 << 8 else np.uint16
        dtype = np.dtype(narrow if cardinality <= 1 << 16 else CODE_DTYPE)
        nbytes = self.num_rows * dtype.itemsize
        # Pool threads scan one problem at once: one lock makes the check,
        # build and store atomic, so no column is built twice or miscounted.
        with memo.lock:
            column = memo.columns.get((attribute, level))
            if column is None and memo.nbytes + nbytes <= GENERALIZED_COLUMN_BUDGET:
                codes = self._table.column(attribute).codes
                column = hierarchy.generalize_codes(codes, level).astype(dtype)
                memo.columns[attribute, level] = column
                memo.nbytes += nbytes
        return column

    def height(self, attribute: str) -> int:
        return self.hierarchy(attribute).height

    @property
    def heights(self) -> dict[str, int]:
        return {name: self.height(name) for name in self._qi}

    def lattice(self, attributes: Sequence[str] | None = None) -> GeneralizationLattice:
        """The full generalization lattice over ``attributes`` (default: QI)."""
        attributes = tuple(attributes) if attributes is not None else self._qi
        return GeneralizationLattice(
            attributes, [self.height(name) for name in attributes]
        )

    def bottom_node(self, attributes: Sequence[str] | None = None) -> LatticeNode:
        attributes = tuple(attributes) if attributes is not None else self._qi
        return LatticeNode(attributes, (0,) * len(attributes))

    def top_node(self, attributes: Sequence[str] | None = None) -> LatticeNode:
        attributes = tuple(attributes) if attributes is not None else self._qi
        return LatticeNode(
            attributes, tuple(self.height(name) for name in attributes)
        )

    def with_quasi_identifier(self, attributes: Sequence[str]) -> "PreparedTable":
        """A view of this problem over a different QI subset (no recompile)."""
        clone = object.__new__(PreparedTable)
        clone._table = self._table
        clone._qi = tuple(attributes)
        missing = [name for name in attributes if name not in self._compiled]
        if missing:
            raise ValueError(f"no hierarchy compiled for {missing}")
        clone._compiled = self._compiled
        clone._memo = self._memo
        return clone

    def star_schema(self) -> StarSchema:
        """Materialise the Figure 4 star schema (dimension table per QI)."""
        dimensions = {
            name: dimension_table(name, self.hierarchy(name))
            for name in self._qi
        }
        return StarSchema(self._table, dimensions)

    def __repr__(self) -> str:
        heights = ", ".join(f"{name}:{self.height(name)}" for name in self._qi)
        return f"PreparedTable(rows={self.num_rows}, qi=[{heights}])"
