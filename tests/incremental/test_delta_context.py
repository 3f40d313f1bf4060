"""The delta context's store semantics: replace, refuse, evict, adopt.

A :class:`repro.incremental.DeltaContext` remembers one prefix frequency
set per lattice node under a byte budget (DESIGN.md §11).  These tests pin
how it keeps that budget: what a repeated capture does, which piece an
over-budget capture evicts, what a lookup or a restored piece changes, and
that a session whose budget forces evictions still answers exactly as a
from-scratch run does.  Piece sizes are read off the context's own
``size_bytes``, so no test assumes a per-piece overhead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.anonymity import FrequencySet
from repro.core.problem import PreparedTable
from repro.incremental import DeltaContext, DeltaPiece, IncrementalSession
from repro.lattice.node import LatticeNode
from tests.conftest import make_random_problem, tiny_numeric_problem
from tests.incremental.test_append_property import from_scratch, split_rows


def frequency_set(problem: PreparedTable, levels, groups: int = 1) -> FrequencySet:
    """A set at ``levels`` with ``groups`` rows; its codes are never read."""
    node = LatticeNode(tuple(problem.quasi_identifier), tuple(levels))
    return FrequencySet(
        node,
        np.zeros((groups, node.size), dtype=np.int64),
        np.ones(groups, dtype=np.int64),
        problem,
    )


def held_bytes(*sets: FrequencySet) -> int:
    """What a fresh context with an ample budget counts for ``sets``."""
    probe = DeltaContext()
    for each in sets:
        probe.capture(each, 0)
    return probe.size_bytes


@pytest.fixture
def sets():
    """Four one-group sets of equal size, at four distinct nodes."""
    problem = tiny_numeric_problem()
    levels = ((0, 0), (1, 0), (0, 1), (1, 1))
    return [frequency_set(problem, each) for each in levels]


def test_capture_of_a_held_node_replaces_its_piece(sets):
    a = sets[0]
    context = DeltaContext()
    assert context.capture(a, 4) == 0
    once = context.size_bytes
    assert context.capture(a, 10) == 0
    assert len(context) == 1
    assert context.size_bytes == once == held_bytes(a)
    assert context.lookup(a.node).covered_rows == 10


def test_piece_larger_than_the_budget_is_refused(sets):
    a = sets[0]
    big = frequency_set(a.problem, a.node.levels, groups=64)
    context = DeltaContext(held_bytes(a))
    assert held_bytes(big) > context.max_bytes
    context.capture(a, 4)
    assert context.capture(big, 10) == 0
    held = context.lookup(a.node)
    assert held.covered_rows == 4 and held.counts.shape == (1,)
    assert context.size_bytes == held_bytes(a)


def test_over_budget_capture_evicts_least_recently_used_first(sets):
    a, b, c, _ = sets
    one = held_bytes(a)
    context = DeltaContext(2 * one)
    assert context.capture(a, 4) == 0
    assert context.capture(b, 4) == 0
    assert context.capture(c, 4) == 1
    assert a.node not in context
    assert b.node in context and c.node in context
    assert context.size_bytes == 2 * one


def test_capture_returns_how_many_pieces_it_evicted(sets):
    a, b, c, d = sets
    one = held_bytes(a)
    context = DeltaContext(3 * one)
    for each in (a, b, c):
        context.capture(each, 4)
    # Two groups: more than one piece, at most two, so two must go.
    wide = frequency_set(d.problem, d.node.levels, groups=2)
    assert one < held_bytes(wide) <= 2 * one
    assert context.capture(wide, 4) == 2
    assert [piece.node for piece in context.pieces()] == [c.node, d.node]
    assert context.size_bytes == one + held_bytes(wide)


def test_lookup_refreshes_recency(sets):
    a, b, c, _ = sets
    context = DeltaContext(2 * held_bytes(a))
    context.capture(a, 4)
    context.capture(b, 4)
    assert context.lookup(a.node) is not None
    assert context.capture(c, 4) == 1
    assert a.node in context and c.node in context
    assert b.node not in context


def test_lookup_of_an_unknown_node_is_none(sets):
    context = DeltaContext()
    context.capture(sets[0], 4)
    assert context.lookup(sets[1].node) is None


def test_install_adopts_without_evicting(sets):
    a, b, c, _ = sets
    one = held_bytes(a)
    context = DeltaContext(one)
    for each in (a, b, c):
        context.install(DeltaPiece(each.node, 4, each.key_codes, each.counts))
    assert len(context) == 3
    assert context.size_bytes == 3 * one > context.max_bytes
    big = frequency_set(a.problem, a.node.levels, groups=64)
    context.install(DeltaPiece(big.node, 6, big.key_codes, big.counts))
    assert len(context) == 3
    assert context.lookup(a.node).covered_rows == 6
    assert context.size_bytes == 2 * one + held_bytes(big)


def test_pieces_are_listed_least_recently_used_first(sets):
    a, b, c, _ = sets
    context = DeltaContext()
    for each in (a, b, c):
        context.capture(each, 4)
    context.lookup(a.node)
    assert [piece.node for piece in context.pieces()] == [b.node, c.node, a.node]


@pytest.mark.parametrize("max_bytes", [0, -1])
def test_non_positive_budget_raises(max_bytes):
    with pytest.raises(ValueError):
        DeltaContext(max_bytes)


def frequency_counters(stats) -> dict:
    return {
        key: value
        for key, value in stats.counters.as_dict().items()
        if key.startswith("frequency.")
    }


@pytest.mark.parametrize("algorithm", ["basic", "bottomup", "binary"])
def test_evicting_session_matches_from_scratch(algorithm):
    problem = make_random_problem(31, num_rows=40, num_attributes=3)
    batches = split_rows(problem, [16, 28])
    qi = problem.quasi_identifier
    hierarchies = {name: problem.hierarchy(name).source for name in qi}
    session = IncrementalSession(
        PreparedTable(batches[0], hierarchies, qi),
        2,
        algorithm=algorithm,
        max_bytes=1024,
    )
    result = session.run()
    for delta in batches[1:]:
        session.append(delta)
        result = session.run()
    scratch, _ = from_scratch(session, 2, algorithm)
    assert result.anonymous_nodes == scratch.anonymous_nodes
    assert frequency_counters(result.stats) == frequency_counters(scratch.stats)
    assert result.stats.counters.as_dict().get("incremental.evictions", 0) > 0
    assert session.context.size_bytes <= 1024
