"""Metamorphic relations: properties that need no oracle.

Two transformations of the input table with a known effect on every
frequency set, checked under serial execution and under the ``shards``
mode with a small range width:

* permuting the rows leaves every node's decoded frequency set and the
  Basic Incognito solution set unchanged;
* repeating every row m times multiplies every count by m, so the
  solutions at k·m (suppression budget × m) on the repeated table are the
  solutions at k on the original.

The tables are rebuilt from raw values, so a permutation also reorders the
dictionaries and the compiled level codes.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.anonymity import FrequencyEvaluator
from repro.core.incognito import basic_incognito
from repro.core.problem import PreparedTable
from repro.core.stats import SearchStats
from repro.parallel import BatchMaterializer, ExecutionConfig
from repro.relational.table import Table
from tests.conftest import make_random_problem

EXECUTIONS = {
    "serial": ExecutionConfig(),
    "shards": ExecutionConfig(mode="shards", workers=2, shard_rows=3),
}


def rebuild(problem: PreparedTable, rows: np.ndarray) -> PreparedTable:
    """A new problem whose table holds ``problem``'s rows in order ``rows``."""
    qi = problem.quasi_identifier
    columns = {}
    for name in qi:
        column = problem.table.column(name)
        columns[name] = [column.values[code] for code in column.codes[rows].tolist()]
    hierarchies = {name: problem.hierarchy(name).source for name in qi}
    return PreparedTable(Table.from_columns(columns), hierarchies, qi)


def decoded_sets(problem: PreparedTable, execution: ExecutionConfig) -> dict:
    """Every lattice node's decoded frequency set, from one batch."""
    nodes = list(problem.lattice().nodes())
    evaluator = FrequencyEvaluator(
        problem, SearchStats(), shard_rows=execution.shard_rows
    )
    with BatchMaterializer(problem, execution) as pool:
        sets = pool.materialize_batch(evaluator, [(node, None) for node in nodes])
    return {node: frequency_set.as_dict() for node, frequency_set in zip(nodes, sets)}


@pytest.mark.parametrize("name", sorted(EXECUTIONS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 5), order=st.randoms())
def test_row_order_changes_nothing(name, seed, k, order):
    execution = EXECUTIONS[name]
    problem = make_random_problem(seed)
    rows = np.arange(problem.num_rows)
    order.shuffle(rows)
    permuted = rebuild(problem, rows)

    assert decoded_sets(permuted, execution) == decoded_sets(problem, execution)
    assert (
        basic_incognito(permuted, k, execution=execution).anonymous_nodes
        == basic_incognito(problem, k, execution=execution).anonymous_nodes
    )


@pytest.mark.parametrize("name", sorted(EXECUTIONS))
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 5),
    suppression=st.integers(0, 4),
    m=st.sampled_from([2, 3]),
)
def test_repeating_rows_scales_counts_and_k(name, seed, k, suppression, m):
    execution = EXECUTIONS[name]
    problem = make_random_problem(seed)
    repeated = rebuild(problem, np.repeat(np.arange(problem.num_rows), m))

    original_sets = decoded_sets(problem, execution)
    repeated_sets = decoded_sets(repeated, execution)
    assert repeated_sets == {
        node: {key: m * count for key, count in groups.items()}
        for node, groups in original_sets.items()
    }
    scaled = basic_incognito(
        repeated, k * m, max_suppression=suppression * m, execution=execution
    )
    original = basic_incognito(
        problem, k, max_suppression=suppression, execution=execution
    )
    assert scaled.anonymous_nodes == original.anonymous_nodes
