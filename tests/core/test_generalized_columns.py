"""Generalized code columns: the memo path against the lookup path.

A scan reads an attribute above level 0 either from the problem's stored
column for that level (:meth:`PreparedTable.generalized_codes`) or, when
the column would not fit :data:`GENERALIZED_COLUMN_BUDGET`, from the base
codes through the level lookup.  Both must give the reference's frequency
sets (``tests/reference.py``) and each other's arrays bit for bit.  The
generated levels sit on the stored dtype's edges (1, 256, 257, 65,536 and
65,537 values), and one node's key space is beyond 2**62.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter

import numpy as np
import pytest

import repro.core.problem as problem_module
from repro.core.anonymity import (
    FrequencyEvaluator,
    compute_frequency_set,
    compute_frequency_set_range,
)
from repro.core.problem import PreparedTable
from repro.core.stats import SearchStats
from repro.hierarchy.base import CompiledHierarchy, Hierarchy
from repro.lattice.node import LatticeNode
from repro.parallel import BatchMaterializer, ExecutionConfig
from tests.core.test_reference_oracle import table_of
from tests.reference import ReferenceFrequencies, assert_matches_reference

#: Level-1 cardinalities on each side of the uint8 and uint16 limits.
MODULI = (1, 256, 257, 65536, 65537, 65537)


class ModuloHierarchy(Hierarchy):
    """Integers: level 1 keeps ``value % modulus``, level 2 suppresses."""

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus

    @property
    def height(self) -> int:
        return 2

    def generalize(self, value, level):
        self._check_level(level)
        return (value, value % self.modulus, "*")[level]


def compiled_of(problem: PreparedTable) -> dict[str, CompiledHierarchy]:
    return {name: problem.hierarchy(name) for name in problem.quasi_identifier}


def edge_problem(seed: int) -> PreparedTable:
    """One attribute per modulus, each with 0-3 dictionary values more."""
    rng = np.random.default_rng(seed)
    num_rows = int(rng.integers(3, 120))
    dictionaries = [
        list(range(modulus + int(rng.integers(0, 4)))) for modulus in MODULI
    ]
    codes = [rng.integers(0, len(values), num_rows) for values in dictionaries]
    table = table_of(dictionaries, codes)
    hierarchies = [ModuloHierarchy(modulus) for modulus in MODULI]
    return PreparedTable(table, dict(zip(table.schema.names, hierarchies)))


def scan_everything(problem, nodes, start, stop):
    """Each node's whole-table scan and its ``[start, stop)`` partial set."""
    return {
        node: (
            compute_frequency_set(problem, node),
            compute_frequency_set_range(problem, node, start, stop),
        )
        for node in nodes
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stored_and_fallback_columns_match_reference(seed, monkeypatch):
    problem = edge_problem(seed)
    compiled = compiled_of(problem)
    num_rows = problem.num_rows
    rng = np.random.default_rng(seed)
    start = int(rng.integers(1, num_rows - 1))
    stop = int(rng.integers(start + 1, num_rows))
    nodes = list(problem.lattice().nodes())
    assert max(
        math.prod(
            problem.hierarchy(attribute).cardinality(level)
            for attribute, level in node.items()
        )
        for node in nodes
    ) > 2**62

    columns = [problem.table.column(name) for name in problem.quasi_identifier]
    sliced_table = table_of(
        [column.values for column in columns],
        [column.codes[start:stop] for column in columns],
    )
    whole = ReferenceFrequencies(problem)
    partial = ReferenceFrequencies(PreparedTable(sliced_table, compiled))

    results = {}
    memos = {}
    # The default budget stores every column here; 0 stores none; one
    # byte a row stores exactly the first uint8 column a scan asks for.
    for state, budget in [("on", None), ("off", 0), ("one", num_rows)]:
        fresh = PreparedTable(problem.table, compiled)
        with monkeypatch.context() as patch:
            if budget is not None:
                patch.setattr(problem_module, "GENERALIZED_COLUMN_BUDGET", budget)
            results[state] = scan_everything(fresh, nodes, start, stop)
        memos[state] = fresh._memo

    stored = {
        state: sorted((key, column.dtype.name) for key, column in memo.columns.items())
        for state, memo in memos.items()
    }
    assert stored["off"] == []
    assert len(stored["one"]) == 1 and stored["one"][0][1] == "uint8"
    assert stored["on"] == [
        (("q1", 1), "uint8"),
        (("q2", 1), "uint16"),
        (("q3", 1), "uint16"),
        (("q4", 1), "int32"),
        (("q5", 1), "int32"),
    ]
    for memo in memos.values():
        assert memo.nbytes == sum(column.nbytes for column in memo.columns.values())

    for node in nodes:
        expected_whole = whole.frequency_set(node)
        expected_partial = partial.frequency_set(node)
        on_scan, on_range = results["on"][node]
        for state in ("on", "off", "one"):
            scan, ranged = results[state][node]
            assert_matches_reference(scan, expected_whole, f"{state} scan {node}")
            assert_matches_reference(
                ranged, expected_partial, f"{state} [{start}, {stop}) {node}"
            )
            for mine, theirs in ((scan, on_scan), (ranged, on_range)):
                assert np.array_equal(mine.key_codes, theirs.key_codes)
                assert mine.key_codes.dtype == theirs.key_codes.dtype
                assert np.array_equal(mine.counts, theirs.counts)
                assert mine.counts.dtype == theirs.counts.dtype


def count_builds(monkeypatch) -> list[tuple[int, int]]:
    """Record ``(id(hierarchy), level)`` for every generalize_codes call."""
    calls: list[tuple[int, int]] = []
    original = CompiledHierarchy.generalize_codes

    def counting(self, base_codes, level):
        calls.append((id(self), level))
        # Give up the interpreter here, so another thread can reach the
        # same column while this one builds it.
        time.sleep(0)
        return original(self, base_codes, level)

    monkeypatch.setattr(CompiledHierarchy, "generalize_codes", counting)
    return calls


def test_views_reuse_their_parents_columns(monkeypatch):
    calls = count_builds(monkeypatch)
    rng = np.random.default_rng(5)
    moduli = (3, 300, 7)
    dictionaries = [list(range(2 * modulus)) for modulus in moduli]
    table = table_of(dictionaries, [rng.integers(0, len(d), 500) for d in dictionaries])
    problem = PreparedTable(
        table, {f"q{i}": ModuloHierarchy(m) for i, m in enumerate(moduli)}
    )
    view = problem.with_quasi_identifier(["q2", "q0"])
    for node in view.lattice().nodes():
        compute_frequency_set(view, node)
    for node in problem.lattice().nodes():
        compute_frequency_set(problem, node)

    # Every level 1 has more than one value; every level 2 has one.
    built = [(name, 1) for name in problem.quasi_identifier]
    assert sorted(problem._memo.columns) == built
    assert Counter(calls) == Counter(
        {(id(problem.hierarchy(name)), level): 1 for name, level in built}
    )
    for name, level in built:
        assert view.generalized_codes(name, level) is problem.generalized_codes(
            name, level
        )
    assert view.generalized_codes("q0", 0) is None
    assert view.generalized_codes("q0", 2) is None


def test_threads_build_each_column_once_within_budget(monkeypatch):
    """More pool threads than cores scan fresh problems at once."""
    calls = count_builds(monkeypatch)
    rng = np.random.default_rng(11)
    moduli = (4, 20, 300, 9, 70000)
    dictionaries = [list(range(modulus + 5)) for modulus in moduli]
    num_rows = 3000
    table = table_of(
        dictionaries, [rng.integers(0, len(d), num_rows) for d in dictionaries]
    )
    compiled = compiled_of(
        PreparedTable(
            table, {f"q{i}": ModuloHierarchy(m) for i, m in enumerate(moduli)}
        )
    )
    # Five columns could be stored (1+1+2+1+4 bytes a row); six bytes a row
    # fit some of them, depending on which thread asks first.
    budget = 6 * num_rows
    monkeypatch.setattr(problem_module, "GENERALIZED_COLUMN_BUDGET", budget)
    workers = min(4 * (os.cpu_count() or 1), 16)
    top = LatticeNode(tuple(compiled), (1,) * len(compiled))
    nodes = list(PreparedTable(table, compiled).lattice().nodes())
    requests = [(top, None)] * workers + [(node, None) for node in nodes]
    baseline = PreparedTable(table, compiled)
    serial = {node: compute_frequency_set(baseline, node) for node in [top, *nodes]}
    config = ExecutionConfig(mode="threads", workers=workers, chunk_timeout=60.0)

    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 20.0
    rounds = 0
    try:
        sys.setswitchinterval(1e-6)
        while rounds < 8 and time.monotonic() < deadline:
            calls.clear()
            problem = PreparedTable(table, compiled)
            evaluator = FrequencyEvaluator(problem, SearchStats())
            with BatchMaterializer(problem, config) as pool:
                sets = pool.materialize_batch(evaluator, requests)
            rounds += 1

            memo = problem._memo
            assert max(Counter(calls).values()) == 1
            assert len(calls) == len(memo.columns)
            assert memo.nbytes == sum(c.nbytes for c in memo.columns.values())
            assert 0 < memo.nbytes <= budget
            for (node, _), frequency_set in zip(requests, sets):
                assert np.array_equal(frequency_set.key_codes, serial[node].key_codes)
                assert np.array_equal(frequency_set.counts, serial[node].counts)
    finally:
        sys.setswitchinterval(interval)
    assert rounds >= 1
