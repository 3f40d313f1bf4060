"""A-priori candidate graph generation (paper Section 3.1.2).

Each Incognito iteration ends by constructing the next iteration's candidate
graph from the surviving (k-anonymous) nodes ``S_i`` and edges ``E_i``:

1. **Join phase** — pair up survivors agreeing on their first i-1
   (dimension, index) components with the i-th dimension of one strictly
   below the other's (a fixed global attribute order avoids duplicates),
   producing (i+1)-attribute candidates and recording the two parents.
2. **Prune phase** — drop candidates having any i-attribute projection that
   did not survive.  The paper looks projections up in an Apriori hash
   tree; here they are looked up in one set of the survivors' items.
3. **Edge generation** — derive candidate direct-generalization edges from
   the parents and ``E_i`` via the three parent-edge patterns of the paper's
   SQL, then subtract edges implied by a two-edge composition (the EXCEPT
   clause).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence

from repro.lattice.graph import CandidateGraph
from repro.lattice.node import LatticeNode


def initial_graph(
    attributes: Sequence[str], heights: Mapping[str, int] | Sequence[int]
) -> CandidateGraph:
    """Build C1/E1: every single-attribute chain, merged into one graph.

    Nodes are ⟨A0⟩..⟨Ah⟩ for each attribute A; edges are the hierarchy
    steps.  Attribute order follows ``attributes`` and fixes the global
    dimension ordering used by all subsequent join phases.
    """
    if not isinstance(heights, Mapping):
        heights = dict(zip(attributes, heights))
    graph = CandidateGraph()
    for attribute in attributes:
        height = heights[attribute]
        for level in range(height + 1):
            graph.add_node(LatticeNode((attribute,), (level,)))
        for level in range(height):
            graph.add_edge(
                LatticeNode((attribute,), (level,)),
                LatticeNode((attribute,), (level + 1,)),
            )
    return graph


def _ordered(node: LatticeNode, rank: Mapping[str, int]) -> LatticeNode:
    """Normalise a node's attributes to the global dimension order."""
    items = sorted(node.items(), key=lambda item: rank[item[0]])
    return LatticeNode.of(items)


def join_phase(
    survivors: Sequence[LatticeNode], order: Sequence[str]
) -> list[tuple[LatticeNode, LatticeNode, LatticeNode]]:
    """Pair survivors into (i+1)-attribute candidates.

    Returns ``(candidate, parent1, parent2)`` triples.  ``parent1`` is the
    candidate minus its last attribute, ``parent2`` the candidate minus its
    second-to-last — exactly the two rows the paper's self-join combines.
    """
    rank = {name: position for position, name in enumerate(order)}
    normalised = [_ordered(node, rank) for node in survivors]
    by_prefix: dict[tuple, list[LatticeNode]] = defaultdict(list)
    for node in normalised:
        prefix = tuple(zip(node.attributes[:-1], node.levels[:-1]))
        by_prefix[prefix].append(node)

    triples: list[tuple[LatticeNode, LatticeNode, LatticeNode]] = []
    for group in by_prefix.values():
        group = sorted(
            group, key=lambda node: (rank[node.attributes[-1]], node.levels[-1])
        )
        for left_pos, p in enumerate(group):
            p_last_rank = rank[p.attributes[-1]]
            for q in group[left_pos + 1:]:
                if rank[q.attributes[-1]] <= p_last_rank:
                    continue  # requires p.dim_i < q.dim_i
                candidate = LatticeNode(
                    p.attributes + (q.attributes[-1],),
                    p.levels + (q.levels[-1],),
                )
                triples.append((candidate, p, q))
    return triples


def prune_phase(
    triples: Sequence[tuple[LatticeNode, LatticeNode, LatticeNode]],
    survivors: Sequence[LatticeNode],
) -> list[tuple[LatticeNode, LatticeNode, LatticeNode]]:
    """Keep candidates whose every i-attribute projection survived.

    A node is keyed by its ``(attribute, level)`` items sorted by attribute
    name, so membership does not depend on the order of a survivor's
    attributes.  Dropping one item from a sorted key leaves a sorted key,
    so each projection is a slice of the candidate's key.
    """
    present = {tuple(sorted(node.items())) for node in survivors}
    kept = []
    for triple in triples:
        key = tuple(sorted(triple[0].items()))
        if all(key[:drop] + key[drop + 1:] in present for drop in range(len(key))):
            kept.append(triple)
    return kept


def edge_generation(
    graph: CandidateGraph,
    parent_pairs: Mapping[LatticeNode, tuple[int, int]],
    previous: CandidateGraph,
) -> None:
    """Populate ``graph``'s edges from parent relationships (in place).

    ``parent_pairs`` maps each candidate to the *previous-graph ids* of its
    two parents.  An edge p → q is a candidate when one of the paper's three
    patterns holds over the previous edge set E_i:

    * parent1(p) → parent1(q) ∈ E_i  and  parent2(p) → parent2(q) ∈ E_i
    * parent1(p) → parent1(q) ∈ E_i  and  parent2(p) =  parent2(q)
    * parent2(p) → parent2(q) ∈ E_i  and  parent1(p) =  parent1(q)

    Candidate edges implied by composing two candidate edges are then
    removed (the SQL EXCEPT) — they would be implied generalizations
    "separated by a single node".
    """
    by_parents: dict[tuple[int, int], LatticeNode] = {
        parents: candidate for candidate, parents in parent_pairs.items()
    }
    successors: dict[int, list[int]] = defaultdict(list)
    for start, end in previous.edges():
        successors[previous.id_of(start)].append(previous.id_of(end))

    candidate_edges: set[tuple[LatticeNode, LatticeNode]] = set()
    for p, (p1, p2) in parent_pairs.items():
        for q1 in successors.get(p1, ()):
            # pattern 2: parent1 steps, parent2 equal
            q = by_parents.get((q1, p2))
            if q is not None:
                candidate_edges.add((p, q))
            # pattern 1: both parents step
            for q2 in successors.get(p2, ()):
                q = by_parents.get((q1, q2))
                if q is not None:
                    candidate_edges.add((p, q))
        for q2 in successors.get(p2, ()):
            # pattern 3: parent2 steps, parent1 equal
            q = by_parents.get((p1, q2))
            if q is not None:
                candidate_edges.add((p, q))

    # EXCEPT: drop edges implied by a two-edge composition.
    heads: dict[LatticeNode, set[LatticeNode]] = defaultdict(set)
    for start, end in candidate_edges:
        heads[start].add(end)
    implied = {
        (start, final)
        for start, middles in heads.items()
        for middle in middles
        for final in heads.get(middle, ())
    }
    for start, end in sorted(
        candidate_edges - implied, key=lambda e: (e[0].sort_key(), e[1].sort_key())
    ):
        graph.add_edge(start, end)


def graph_generation(
    survivors: Sequence[LatticeNode],
    previous: CandidateGraph,
    order: Sequence[str],
) -> CandidateGraph:
    """Run join, prune, and edge generation; return C_{i+1}/E_{i+1}.

    ``survivors`` are the k-anonymous nodes of the previous iteration (S_i,
    all the same subset size); ``previous`` is that iteration's candidate
    graph (provides ids and E_i); ``order`` is the global attribute order.
    """
    triples = join_phase(survivors, order)
    triples = prune_phase(triples, survivors)

    graph = CandidateGraph()
    parent_pairs: dict[LatticeNode, tuple[int, int]] = {}
    for candidate, parent1, parent2 in sorted(
        triples, key=lambda t: t[0].sort_key()
    ):
        parents = (previous.id_of(parent1), previous.id_of(parent2))
        graph.add_node(candidate, parents)
        parent_pairs[candidate] = parents
    edge_generation(graph, parent_pairs, previous)
    return graph
