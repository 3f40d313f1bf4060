"""A-priori candidate graph generation (paper Section 3.1.2).

Each Incognito iteration ends by constructing the next iteration's candidate
graph from the surviving (k-anonymous) nodes ``S_i`` and edges ``E_i``:

1. **Join phase** — pair up survivors agreeing on their first i-1
   (dimension, index) components with the i-th dimension of one strictly
   below the other's (a fixed global attribute order avoids duplicates),
   producing (i+1)-attribute candidates and recording the two parents.
2. **Prune phase** — drop candidates having any i-attribute projection that
   did not survive.  The paper looks projections up in an Apriori hash
   tree; here they are looked up in one set of the survivors' keys.
3. **Edge generation** — derive candidate direct-generalization edges from
   the parents and ``E_i`` via the three parent-edge patterns of the paper's
   SQL, then subtract edges implied by a two-edge composition (the EXCEPT
   clause).

As in the paper's relational form (Figure 6), the phases run on integers.
A node's *key* is its ``rank << shift | level`` items sorted by attribute
rank, where rank is the attribute's position in the global order and
``shift`` is the bit length of the largest level present, so the join
matches key prefixes and a projection is a key slice.  Edges are
``(start id, end id)`` pairs of graph ids.  A :class:`LatticeNode` is built
once per kept candidate.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby, product
from typing import Collection, Iterable, Mapping, Sequence

from repro.lattice.graph import CandidateGraph
from repro.lattice.node import LatticeNode

Key = tuple[int, ...]


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
        levels = range(heights[attribute] + 1)
        chain = [LatticeNode((attribute,), (level,)) for level in levels]
        for node in chain:
            graph.add_node(node)
        for start, end in zip(chain, chain[1:]):
            graph.add_edge(start, end)
    return graph


def _keys(nodes: Sequence[LatticeNode], order: Sequence[str]) -> tuple[list[Key], int]:
    """Key every node, with ``shift`` the bit length of the largest level."""
    rank = {name: position for position, name in enumerate(order)}
    levels = [level for node in nodes for level in node.levels]
    shift = max(levels, default=0).bit_length()
    return [
        tuple(sorted(rank[name] << shift | level for name, level in node.items()))
        for node in nodes
    ], shift


def _node(key: Key, order: Sequence[str], shift: int) -> LatticeNode:
    mask = (1 << shift) - 1
    names = tuple([order[item >> shift] for item in key])
    return LatticeNode(names, tuple([item & mask for item in key]))


def _join(keys: Iterable[Key], shift: int) -> list[tuple[Key, Key, Key]]:
    """Pair keys into ``(candidate, parent1, parent2)`` key triples.

    Two keys join when they share all but their last item and the second's
    last attribute ranks above the first's.
    """
    triples: list[tuple[Key, Key, Key]] = []
    for _, members in groupby(sorted(keys), key=lambda key: key[:-1]):
        group = list(members)
        lasts = [key[-1] for key in group]
        for p in group:
            # The group is sorted by last item, so the partners are a suffix.
            start = bisect_left(lasts, ((p[-1] >> shift) + 1) << shift)
            triples.extend((p + q[-1:], p, q) for q in group[start:])
    return triples


def _prune(entries: Iterable[tuple], present: Collection[Key]) -> list[tuple]:
    """Keep the entries whose first item, a key, has every projection present."""
    return [
        entry
        for entry in entries
        if all(entry[0][:d] + entry[0][d + 1:] in present for d in range(len(entry[0])))
    ]


def join_phase(
    survivors: Sequence[LatticeNode], order: Sequence[str]
) -> list[tuple[LatticeNode, LatticeNode, LatticeNode]]:
    """Pair survivors into (i+1)-attribute candidates.

    Returns ``(candidate, parent1, parent2)`` triples.  ``parent1`` is the
    candidate minus its last attribute, ``parent2`` the candidate minus its
    second-to-last — exactly the two rows the paper's self-join combines.
    """
    keys, shift = _keys(survivors, order)
    return [
        (_node(c, order, shift), _node(p, order, shift), _node(q, order, shift))
        for c, p, q in _join(keys, shift)
    ]


def prune_phase(
    triples: Sequence[tuple[LatticeNode, LatticeNode, LatticeNode]],
    survivors: Sequence[LatticeNode],
) -> list[tuple[LatticeNode, LatticeNode, LatticeNode]]:
    """Keep candidates whose every i-attribute projection survived.

    Any fixed attribute ranking gives every node one key, so membership
    does not depend on the order of a survivor's attributes; names are
    ranked alphabetically here.
    """
    nodes = [*(triple[0] for triple in triples), *survivors]
    keys, _ = _keys(nodes, sorted({name for n in nodes for name in n.attributes}))
    present = set(keys[len(triples):])
    return [triple for _, triple in _prune(zip(keys, triples), present)]


def edge_generation(
    graph: CandidateGraph, parents: Sequence[tuple[int, int]], previous: CandidateGraph
) -> None:
    """Populate ``graph``'s edges from parent relationships (in place).

    ``parents[i]`` holds the *previous-graph ids* of the two parents of the
    node with id ``i + 1``.  An edge p → q is a candidate when one of the
    paper's three patterns holds over the previous edge set E_i:

    * parent1(p) → parent1(q) ∈ E_i  and  parent2(p) → parent2(q) ∈ E_i
    * parent1(p) → parent1(q) ∈ E_i  and  parent2(p) =  parent2(q)
    * parent2(p) → parent2(q) ∈ E_i  and  parent1(p) =  parent1(q)

    Candidate edges implied by composing two candidate edges are then
    removed (the SQL EXCEPT) — they would be implied generalizations
    "separated by a single node".  Edges are added in ascending
    ``(start id, end id)`` order.
    """
    by_parents = {pair: node_id for node_id, pair in enumerate(parents, start=1)}
    heads: list[set[int]] = []
    for node_id, (p1, p2) in enumerate(parents, start=1):
        # Each parent of q equals or directly generalizes p's: both step
        # (pattern 1), parent1 steps (2), parent2 steps (3) or neither (p).
        steps = product(
            (p1, *previous.direct_generalization_ids(p1)),
            (p2, *previous.direct_generalization_ids(p2)),
        )
        # Ids start at 1, so filtering falsy ids drops only the misses.
        heads.append(set(filter(None, map(by_parents.get, steps))) - {node_id})

    # EXCEPT: drop edges implied by a two-edge composition.
    for start, ends in enumerate(heads, start=1):
        implied = {final for middle in ends for final in heads[middle - 1]}
        for end in sorted(ends - implied):
            graph.add_edge(start, end)


def graph_generation(
    survivors: Sequence[LatticeNode], previous: CandidateGraph, order: Sequence[str]
) -> CandidateGraph:
    """Run join, prune, and edge generation; return C_{i+1}/E_{i+1}.

    ``survivors`` are the k-anonymous nodes of the previous iteration (S_i,
    all the same subset size); ``previous`` is that iteration's candidate
    graph (provides ids and E_i); ``order`` is the global attribute order.
    Nodes are inserted in :meth:`LatticeNode.sort_key` order, so ids sort
    as the nodes do.
    """
    keys, shift = _keys(survivors, order)
    ids = dict(zip(keys, map(previous.id_of, survivors)))
    pruned = _prune(_join(ids, shift), ids)
    kept = [(_node(c, order, shift), (ids[p1], ids[p2])) for c, p1, p2 in pruned]
    kept.sort(key=lambda entry: entry[0].sort_key())
    graph = CandidateGraph()
    for node, parents in kept:
        graph.add_node(node, parents)
    edge_generation(graph, [parents for _, parents in kept], previous)
    return graph
