"""Every frequency-set path against the pure-Python reference, node by node.

Scans, partial scans merged with ``merge_partials``, rollups and
projections must all decode to the reference's
``Counter`` of generalized value tuples (``tests/reference.py``), in the
canonical form.  The generated tables are built to reach the places where
the group kernel changes strategy: key spaces just below, at and just
above the row count (dense count vs sort), levels of cardinality one,
fully suppressed nodes, zero and one rows, and — through dictionaries
whose entries are nearly all unreferenced — key spaces above 2**62, where
the mixed-radix key no longer fits.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anonymity import (
    FrequencySet,
    compute_frequency_set,
    compute_frequency_set_range,
)
from repro.core.outofcore import merge_partials
from repro.core.problem import PreparedTable
from repro.hierarchy.rounding import RoundingHierarchy
from repro.hierarchy.suppression import SuppressionHierarchy
from repro.hierarchy.taxonomy import TaxonomyHierarchy
from repro.relational.column import Column
from repro.relational.schema import Schema
from repro.relational.table import Table
from tests.reference import ReferenceFrequencies, assert_matches_reference


@st.composite
def attributes(draw):
    """A hierarchy and a dictionary of 1-8 distinct base values for it."""
    shape = draw(st.sampled_from(["suppress", "round", "taxonomy"]))
    size = draw(st.integers(1, 8))
    if shape == "suppress":
        return SuppressionHierarchy(), [f"v{i}" for i in range(size)]
    if shape == "round":
        numbers = draw(
            st.lists(st.integers(0, 99), min_size=size, max_size=size, unique=True)
        )
        return RoundingHierarchy(2), [str(n).rjust(2, "0") for n in numbers]
    leaves = [f"l{i}" for i in range(size)]
    if size == 1:
        return TaxonomyHierarchy.grouped({"g0": leaves}), leaves
    split = draw(st.integers(1, size - 1))
    groups = {"g0": leaves[:split], "g1": leaves[split:]}
    return TaxonomyHierarchy.grouped(groups), leaves


def table_of(dictionaries, codes) -> Table:
    names = [f"q{position}" for position in range(len(dictionaries))]
    columns = [Column(c, values) for c, values in zip(codes, dictionaries)]
    return Table(Schema.of(*names), columns)


@st.composite
def problems(draw):
    """1-3 attributes, with the row count drawn next to one node's key space.

    The key space of a node is the product of its levels' cardinalities,
    counted here by definition (distinct generalized dictionary values).
    Codes draw from a prefix of each dictionary, so the rest stays
    unreferenced yet still counts towards the key space.
    """
    drawn = draw(st.lists(attributes(), min_size=1, max_size=3))
    hierarchies = [hierarchy for hierarchy, _ in drawn]
    dictionaries = [values for _, values in drawn]
    levels = [draw(st.integers(0, hierarchy.height)) for hierarchy in hierarchies]
    space = math.prod(
        len({hierarchy.generalize(value, level) for value in values})
        for hierarchy, values, level in zip(hierarchies, dictionaries, levels)
    )
    num_rows = max(
        draw(st.sampled_from([space - 1, space, space + 1]) | st.integers(0, 3)), 0
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = [
        rng.integers(0, draw(st.integers(1, len(values))), num_rows)
        for values in dictionaries
    ]
    table = table_of(dictionaries, codes)
    return PreparedTable(table, dict(zip(table.schema.names, hierarchies)))


@st.composite
def huge_key_space_problems(draw):
    """Five attributes with 2**13-entry dictionaries and at most 12 rows.

    The bottom node's key space is 2**65 although almost every dictionary
    entry is unreferenced, so it is grouped by whole rows; dropping or
    suppressing one attribute brings the space back into the mixed-radix
    key (2**52 and below), which is then sorted.
    """
    size = 2**13
    num_rows = draw(st.integers(0, 12))
    codes = [
        draw(st.lists(st.integers(0, size - 1), min_size=num_rows, max_size=num_rows))
        for _ in range(5)
    ]
    dictionaries = [[str(i).rjust(4, "0") for i in range(size)]] + [
        [f"v{i}" for i in range(size)] for _ in range(4)
    ]
    hierarchies = [RoundingHierarchy(4)] + [SuppressionHierarchy() for _ in range(4)]
    table = table_of(dictionaries, codes)
    return PreparedTable(table, dict(zip(table.schema.names, hierarchies)))


def check_every_node(problem: PreparedTable, data, rollup_sources) -> None:
    """Scan, ranged scans + merge, rollups and projections vs the reference.

    ``rollup_sources(node, lattice)`` names the nodes each node is rolled
    up from.
    """
    reference = ReferenceFrequencies(problem)
    lattice = problem.lattice()
    num_rows = problem.num_rows
    scans = {}
    for node in lattice.nodes():
        expected = reference.frequency_set(node)
        scan = compute_frequency_set(problem, node)
        assert_matches_reference(scan, expected, f"scan {node}")
        scans[node] = scan

        cuts = data.draw(st.lists(st.integers(0, num_rows), max_size=4), label="cuts")
        bounds = [0, *sorted(cuts), num_rows]
        partials = [
            compute_frequency_set_range(problem, node, start, stop)
            for start, stop in zip(bounds, bounds[1:])
        ]
        radices = [
            problem.hierarchy(attribute).cardinality(level)
            for attribute, level in node.items()
        ]
        keys, counts = merge_partials(
            [piece.key_codes for piece in partials],
            [piece.counts for piece in partials],
            radices,
        )
        merged = FrequencySet(node, keys, counts, problem)
        assert_matches_reference(merged, expected, f"merge {node} at {bounds}")

    for target in lattice.nodes():
        expected = reference.frequency_set(target)
        for source in rollup_sources(target, lattice):
            assert_matches_reference(
                scans[source].rollup(target), expected, f"rollup {source} -> {target}"
            )
        for size in range(1, target.size):
            kept = data.draw(
                st.lists(
                    st.sampled_from(target.attributes),
                    min_size=size, max_size=size, unique=True,
                ),
                label="projected attributes",
            )
            projected = scans[target].project(kept)
            assert_matches_reference(
                projected,
                reference.frequency_set(target.subset(kept)),
                f"project {target} -> {kept}",
            )


def every_lower_node(target, lattice):
    return [node for node in lattice.nodes() if target.generalizes(node)]


def bottom_node(target, lattice):
    return [lattice.bottom]


@settings(max_examples=60, deadline=None)
@given(problem=problems(), data=st.data())
def test_every_path_matches_reference(problem, data):
    check_every_node(problem, data, every_lower_node)


@settings(max_examples=12, deadline=None)
@given(problem=huge_key_space_problems(), data=st.data())
def test_key_space_beyond_mixed_radix_matches_reference(problem, data):
    check_every_node(problem, data, bottom_node)
