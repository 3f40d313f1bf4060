"""Property test: per-shard partial merge == whole-table scan, always.

The shard mode's correctness rests on one algebraic fact — COUNT is
distributive and :func:`repro.core.outofcore.merge_partials` re-groups by
the same mixed-radix dense key a direct scan sorts by — so for *any*
table, *any* shard width (including widths that do not divide the row
count), *any* merge order, and even gratuitous empty shards, the merged
result must be bit-identical to :func:`compute_frequency_set`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anonymity import (
    FrequencyEvaluator,
    compute_frequency_set,
    compute_frequency_set_range,
)
from repro.core.outofcore import merge_partials
from tests.conftest import make_random_problem


def node_radices(problem, node) -> list[int]:
    return [
        problem.hierarchy(attribute).cardinality(level)
        for attribute, level in node.items()
    ]


def merged_scan(problem, node, ranges) -> tuple[np.ndarray, np.ndarray]:
    partials = [
        compute_frequency_set_range(problem, node, start, stop)
        for start, stop in ranges
    ]
    return merge_partials(
        [piece.key_codes for piece in partials],
        [piece.counts for piece in partials],
        node_radices(problem, node),
    )


@settings(max_examples=40)
@given(
    seed=st.integers(0, 60),
    shard_rows=st.integers(1, 60),
    data=st.data(),
)
def test_shard_merge_equals_whole_scan(seed, shard_rows, data):
    problem = make_random_problem(seed)
    num_rows = problem.table.num_rows
    ranges = list(FrequencyEvaluator(problem, shard_rows=shard_rows).plan_scan().ranges)
    # Splice in an empty range at an arbitrary boundary: empty shards must
    # be neutral elements of the merge.
    empty_at = data.draw(
        st.integers(0, num_rows), label="empty-shard position"
    )
    ranges = ranges + [(empty_at, empty_at)]
    # Merge order must not matter either.
    ranges = data.draw(st.permutations(ranges), label="merge order")

    lattice = problem.lattice()
    nodes = [problem.bottom_node(), problem.top_node()]
    middle = [
        node
        for height in range(1, lattice.max_height)
        for node in lattice.nodes_at_height(height)
    ]
    if middle:
        nodes.append(data.draw(st.sampled_from(middle), label="middle node"))

    for node in nodes:
        keys, counts = merged_scan(problem, node, ranges)
        direct = compute_frequency_set(problem, node)
        np.testing.assert_array_equal(keys, direct.key_codes)
        np.testing.assert_array_equal(counts, direct.counts)
        assert counts.sum() == num_rows


@settings(max_examples=20)
@given(seed=st.integers(0, 30), width=st.integers(1, 9))
def test_range_scans_partition_every_row(seed, width):
    """Each row lands in exactly one shard: per-shard totals sum to N."""
    problem = make_random_problem(seed)
    num_rows = problem.table.num_rows
    node = problem.bottom_node()
    plan = FrequencyEvaluator(problem, shard_rows=width).plan_scan()
    totals = [
        compute_frequency_set_range(problem, node, start, stop).total()
        for start, stop in plan.ranges
    ]
    assert sum(totals) == num_rows


def test_empty_range_yields_empty_set():
    problem = make_random_problem(7)
    node = problem.bottom_node()
    fs = compute_frequency_set_range(problem, node, 2, 2)
    assert fs.num_groups == 0 and fs.total() == 0


def test_range_bounds_are_validated():
    import pytest

    problem = make_random_problem(7)
    node = problem.bottom_node()
    num_rows = problem.table.num_rows
    with pytest.raises(ValueError):
        compute_frequency_set_range(problem, node, -1, 2)
    with pytest.raises(ValueError):
        compute_frequency_set_range(problem, node, 0, num_rows + 1)
    with pytest.raises(ValueError):
        compute_frequency_set_range(problem, node, 3, 2)
