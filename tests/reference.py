"""A frequency-set reference that shares no code with the group kernel.

The paper defines a frequency set as ``SELECT COUNT(*) ... GROUP BY`` over
the table generalized to a lattice node (Sections 1.1 and 2).  This module
computes exactly that, one row at a time: it reads each raw value through
``Column.values``, generalizes it with the abstract
``Hierarchy.generalize`` (never the compiled lookup arrays), and counts the
generalized tuples in a :class:`collections.Counter`.  Nothing here calls
``group_by_codes`` or any other numpy grouping, so the differential and
property suites can check the kernel against it.
"""

from __future__ import annotations

from collections import Counter

from repro.core.anonymity import FrequencySet
from repro.core.problem import PreparedTable
from repro.lattice.node import LatticeNode


class ReferenceFrequencies:
    """Frequency sets of one problem, by definition.

    Generalized columns are cached per (attribute, level), so checking
    every node of a lattice generalizes each value once per level.
    """

    def __init__(self, problem: PreparedTable) -> None:
        self._problem = problem
        self._generalized: dict[tuple[str, int], list] = {}

    def _column(self, attribute: str, level: int) -> list:
        key = (attribute, level)
        if key not in self._generalized:
            column = self._problem.table.column(attribute)
            values = column.values
            hierarchy = self._problem.hierarchy(attribute).source
            self._generalized[key] = [
                hierarchy.generalize(values[code], level)
                for code in column.codes.tolist()
            ]
        return self._generalized[key]

    def frequency_set(self, node: LatticeNode) -> Counter:
        """``{generalized value tuple: count}`` of the table at ``node``."""
        return Counter(
            zip(*(self._column(attribute, level) for attribute, level in node.items()))
        )

    def is_k_anonymous(self, node: LatticeNode, k: int) -> bool:
        """Every group has at least ``k`` rows (vacuously true with none)."""
        return all(count >= k for count in self.frequency_set(node).values())


def assert_matches_reference(
    frequency_set: FrequencySet, reference: Counter, context: str = ""
) -> None:
    """The kernel's set decodes to the reference, in its canonical form.

    The canonical form is what every execution path must produce
    bit for bit: int32 key codes, int64 counts, and key rows in strictly
    ascending lexicographic order.
    """
    keys, counts = frequency_set.key_codes, frequency_set.counts
    assert keys.dtype.name == "int32", context
    assert counts.dtype.name == "int64", context
    assert keys.shape == (counts.shape[0], frequency_set.node.size), context
    rows = [tuple(row) for row in keys.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:])), context
    assert frequency_set.as_dict() == dict(reference), context
