"""Candidate graphs at paper scale hash to recorded digests.

The search visits a graph's nodes in insertion order, and that order decides
which parent each rollup starts from, so node ids, parents and edge order are
part of a run's result.  Each case wraps ``repro.core.incognito.
graph_generation`` and feeds one sha256, for every graph it returns, with
``repr((id, attributes, levels, parents_of(id)))`` per node in insertion
order, ``repr((start id, end id))`` per edge in ``edges()`` order, and then
``b"|"``.  The digests were recorded on the paper's largest inputs (Basic
Incognito on Adults QID 9 and Lands End QID 8, Super-roots on Lands End
QID 7, all at k = 2 on the datasets' default seeds), so any change to how
graphs are built must leave them unchanged.
"""

import hashlib

import pytest

import repro.core.incognito as incognito
from repro.core.superroots import superroots_incognito
from repro.datasets.adults import adults_problem
from repro.datasets.landsend import landsend_problem

CASES = {
    "adults-q9": (
        lambda: incognito.basic_incognito(
            adults_problem(45_222, qi_size=9, seed=7), 2
        ),
        "19640f8bc49bdfaf", (8, 36_049, 93_300),
    ),
    "landsend-q8": (
        lambda: incognito.basic_incognito(
            landsend_problem(200_000, qi_size=8, seed=11), 2
        ),
        "896fb46c7c8484b8", (7, 15_283, 38_719),
    ),
    "landsend-superroots-q7": (
        lambda: superroots_incognito(
            landsend_problem(200_000, qi_size=7, seed=11), 2
        ),
        "31a4020010dbd15b", (6, 5_371, 12_134),
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CASES))
def test_graphs_match_recorded_digest(monkeypatch, name):
    run, digest, expected_counts = CASES[name]
    sha = hashlib.sha256()
    counts = [0, 0, 0]
    generate = incognito.graph_generation

    def recording(*args, **kwargs):
        graph = generate(*args, **kwargs)
        for node_id, node in enumerate(graph, start=1):
            parents = graph.parents_of(node_id)
            sha.update(repr((node_id, node.attributes, node.levels, parents)).encode())
        for start, end in graph.edges():
            sha.update(repr((graph.id_of(start), graph.id_of(end))).encode())
            counts[2] += 1
        sha.update(b"|")
        counts[0] += 1
        counts[1] += len(graph)
        return graph

    monkeypatch.setattr(incognito, "graph_generation", recording)
    run()
    assert tuple(counts) == expected_counts
    assert sha.hexdigest()[:16] == digest
