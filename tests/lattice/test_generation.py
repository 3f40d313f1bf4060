"""Tests for a-priori graph generation (Section 3.1.2, Figures 5-7)."""

import itertools
import random

from repro.lattice.generation import (
    graph_generation,
    initial_graph,
    join_phase,
    prune_phase,
)
from repro.lattice.node import LatticeNode

PATIENTS_QI = ("Birthdate", "Sex", "Zipcode")
HEIGHTS = {"Birthdate": 1, "Sex": 1, "Zipcode": 2}


def bsz(b: int, s: int, z: int) -> LatticeNode:
    return LatticeNode(PATIENTS_QI, (b, s, z))


class TestInitialGraph:
    def test_c1_node_count(self):
        graph = initial_graph(PATIENTS_QI, HEIGHTS)
        # (1+1) + (1+1) + (2+1) single-attribute nodes
        assert len(graph) == 7

    def test_e1_chain_edges(self):
        graph = initial_graph(PATIENTS_QI, HEIGHTS)
        assert graph.num_edges() == 1 + 1 + 2

    def test_roots_are_level_zero(self):
        graph = initial_graph(PATIENTS_QI, HEIGHTS)
        assert {str(r) for r in graph.roots()} == {"<B0>", "<S0>", "<Z0>"}


class TestJoinPhase:
    def test_pairs_single_attributes(self):
        survivors = [
            LatticeNode(("Sex",), (0,)),
            LatticeNode(("Sex",), (1,)),
            LatticeNode(("Zipcode",), (0,)),
        ]
        triples = join_phase(survivors, PATIENTS_QI)
        candidates = {t[0] for t in triples}
        assert candidates == {
            LatticeNode(("Sex", "Zipcode"), (0, 0)),
            LatticeNode(("Sex", "Zipcode"), (1, 0)),
        }

    def test_respects_dimension_order(self):
        """Pairs are generated once, with dims ordered by the QI order."""
        survivors = [
            LatticeNode(("Zipcode",), (0,)),
            LatticeNode(("Sex",), (0,)),
        ]
        triples = join_phase(survivors, PATIENTS_QI)
        assert len(triples) == 1
        candidate, parent1, parent2 = triples[0]
        assert candidate.attributes == ("Sex", "Zipcode")
        assert parent1.attributes == ("Sex",)
        assert parent2.attributes == ("Zipcode",)

    def test_prefix_must_match_levels(self):
        survivors = [
            LatticeNode(("Sex", "Zipcode"), (0, 0)),
            LatticeNode(("Sex", "Birthdate"), (1, 0)),  # different Sex level
        ]
        # normalised order: (Birthdate, Sex) vs (Sex, Zipcode): prefixes differ
        triples = join_phase(survivors, PATIENTS_QI)
        assert triples == []


class TestPrunePhase:
    def test_drops_candidates_with_missing_subsets(self):
        survivors = [
            LatticeNode(("Sex",), (0,)),
            LatticeNode(("Zipcode",), (0,)),
        ]
        triples = join_phase(survivors, PATIENTS_QI)
        assert len(prune_phase(triples, survivors)) == 1
        # now remove a needed subset: candidate ⟨S0, Z0⟩ requires both parents
        pruned = prune_phase(triples, [LatticeNode(("Sex",), (0,))])
        assert pruned == []

    def test_survivors_listed_out_of_qi_order_still_count(self):
        survivors = [
            LatticeNode(("Sex", "Birthdate"), (1, 0)),
            LatticeNode(("Zipcode", "Birthdate"), (2, 0)),
            LatticeNode(("Zipcode", "Sex"), (2, 1)),
        ]
        triples = join_phase(survivors, PATIENTS_QI)
        assert [candidate for candidate, _, _ in triples] == [bsz(0, 1, 2)]
        assert prune_phase(triples, survivors) == triples

    def test_three_attribute_candidate_needs_all_three_projections(self):
        survivors = [
            LatticeNode(("Birthdate", "Sex"), (0, 1)),
            LatticeNode(("Birthdate", "Zipcode"), (0, 2)),
            LatticeNode(("Sex", "Zipcode"), (1, 2)),
        ]
        triples = join_phase(survivors, PATIENTS_QI)
        assert [candidate for candidate, _, _ in triples] == [bsz(0, 1, 2)]
        assert prune_phase(triples, survivors) == triples
        # ⟨S1, Z2⟩ is neither join parent: only the full projection check
        # can drop the candidate when it alone is missing.
        for missing in range(len(survivors)):
            rest = survivors[:missing] + survivors[missing + 1:]
            assert prune_phase(triples, rest) == [], survivors[missing]

    def test_duplicate_survivors_change_nothing(self):
        survivors = [
            LatticeNode(("Sex",), (0,)),
            LatticeNode(("Zipcode",), (0,)),
            LatticeNode(("Zipcode",), (1,)),
        ]
        triples = join_phase(survivors, PATIENTS_QI)
        kept = prune_phase(triples, survivors)
        assert len(kept) == 2
        assert prune_phase(triples, survivors + survivors[::-1]) == kept

    def test_keeps_candidate_when_every_projection_survived(self):
        survivors = [
            LatticeNode(("Birthdate",), (0,)),
            LatticeNode(("Sex",), (1,)),
            LatticeNode(("Zipcode",), (2,)),
        ]
        triples = join_phase(survivors, PATIENTS_QI)
        assert {candidate for candidate, _, _ in triples} == {
            LatticeNode(("Birthdate", "Sex"), (0, 1)),
            LatticeNode(("Birthdate", "Zipcode"), (0, 2)),
            LatticeNode(("Sex", "Zipcode"), (1, 2)),
        }
        assert prune_phase(triples, survivors) == triples

    def test_drops_candidate_whose_projection_is_missing(self):
        survivors = [LatticeNode(("Sex",), (0,)), LatticeNode(("Zipcode",), (1,))]
        triples = join_phase(survivors, PATIENTS_QI)
        assert [candidate for candidate, _, _ in triples] == [
            LatticeNode(("Sex", "Zipcode"), (0, 1))
        ]
        for missing in survivors:
            rest = [node for node in survivors if node != missing]
            assert prune_phase(triples, rest) == [], missing

    def test_projection_levels_must_survive_not_just_attributes(self):
        # ⟨S1, Z2⟩ survived but ⟨S0, Z2⟩ did not, so of the two joined
        # candidates only ⟨B0, S1, Z2⟩ has all three projections.
        survivors = [
            LatticeNode(("Birthdate", "Sex"), (0, 1)),
            LatticeNode(("Birthdate", "Sex"), (1, 0)),
            LatticeNode(("Birthdate", "Zipcode"), (0, 2)),
            LatticeNode(("Birthdate", "Zipcode"), (1, 2)),
            LatticeNode(("Sex", "Zipcode"), (1, 2)),
        ]
        triples = join_phase(survivors, PATIENTS_QI)
        assert {candidate for candidate, _, _ in triples} == {
            bsz(0, 1, 2), bsz(1, 0, 2),
        }
        kept = prune_phase(triples, survivors)
        assert [candidate for candidate, _, _ in kept] == [bsz(0, 1, 2)]

    def test_randomized_against_plain_set(self):
        rng = random.Random(5)
        qi = ("w", "x", "y", "z")
        universe = [LatticeNode((name,), (level,)) for name in qi for level in range(3)]
        pairs = [
            a.merge(b)
            for i, a in enumerate(universe)
            for b in universe[i + 1:]
            if a.attributes != b.attributes
        ]
        chosen = rng.sample(pairs, 25)
        chosen_set = set(chosen)
        triples = join_phase(chosen, qi)
        expected = [
            triple
            for triple in triples
            if all(
                triple[0].subset(subset) in chosen_set
                for subset in itertools.combinations(triple[0].attributes, 2)
            )
        ]
        assert 0 < len(expected) < len(triples)
        assert prune_phase(triples, chosen) == expected


class TestPaperExample:
    """Example 3.2 / Figure 7: the pruned 3-attribute graph for Patients."""

    # Final 2-attribute survivors shown in Figure 5 (a, b, c):
    S2 = [
        # ⟨Sex, Zipcode⟩ searches end with: ⟨S1,Z0⟩,⟨S1,Z1⟩,⟨S1,Z2⟩,⟨S0,Z2⟩
        LatticeNode(("Sex", "Zipcode"), (1, 0)),
        LatticeNode(("Sex", "Zipcode"), (1, 1)),
        LatticeNode(("Sex", "Zipcode"), (1, 2)),
        LatticeNode(("Sex", "Zipcode"), (0, 2)),
        # ⟨Birthdate, Zipcode⟩: ⟨B1,Z0⟩,⟨B1,Z1⟩,⟨B1,Z2⟩,⟨B0,Z2⟩
        LatticeNode(("Birthdate", "Zipcode"), (1, 0)),
        LatticeNode(("Birthdate", "Zipcode"), (1, 1)),
        LatticeNode(("Birthdate", "Zipcode"), (1, 2)),
        LatticeNode(("Birthdate", "Zipcode"), (0, 2)),
        # ⟨Birthdate, Sex⟩: ⟨B1,S0⟩,⟨B0,S1⟩,⟨B1,S1⟩
        LatticeNode(("Birthdate", "Sex"), (1, 0)),
        LatticeNode(("Birthdate", "Sex"), (0, 1)),
        LatticeNode(("Birthdate", "Sex"), (1, 1)),
    ]

    def _generate(self):
        # Build a 2-attribute graph holding S2 with its edges, as the
        # algorithm would have it at the end of iteration 2.
        from repro.lattice.graph import CandidateGraph

        graph = CandidateGraph()
        for node in self.S2:
            graph.add_node(node)
        for a in self.S2:
            for b in self.S2:
                if b.is_direct_generalization_of(a):
                    graph.add_edge(a, b)
        return graph_generation(self.S2, graph, PATIENTS_QI)

    def test_figure7a_nodes(self):
        graph = self._generate()
        expected = {
            bsz(1, 1, 0), bsz(1, 1, 1), bsz(1, 0, 2), bsz(0, 1, 2), bsz(1, 1, 2),
        }
        assert set(graph.nodes) == expected

    def test_figure7a_edges(self):
        graph = self._generate()
        edges = {(str(a), str(b)) for a, b in graph.edges()}
        assert edges == {
            ("<B1, S1, Z0>", "<B1, S1, Z1>"),
            ("<B1, S1, Z1>", "<B1, S1, Z2>"),
            ("<B1, S0, Z2>", "<B1, S1, Z2>"),
            ("<B0, S1, Z2>", "<B1, S1, Z2>"),
        }

    def test_figure7a_roots(self):
        graph = self._generate()
        assert set(graph.roots()) == {bsz(1, 1, 0), bsz(1, 0, 2), bsz(0, 1, 2)}

    def test_much_smaller_than_unpruned_lattice(self):
        """Figure 7(b): the unpruned 3-attribute lattice has 12 nodes."""
        graph = self._generate()
        assert len(graph) == 5 < 12


class TestRandomizedSemantics:
    """graph_generation must equal the subset-property semantics exactly."""

    def test_nodes_and_edges_match_bruteforce(self):
        rng = random.Random(17)
        qi = ("A", "B", "C", "D")
        heights = {"A": 2, "B": 1, "C": 2, "D": 1}
        for _ in range(40):
            graph = initial_graph(qi, heights)
            for size in range(1, 4):
                # Random upward-closed survivor sets per family (mirrors the
                # generalization property's guarantee).
                survivors: set[LatticeNode] = set()
                for family_nodes in graph.families().values():
                    for node in family_nodes:
                        if rng.random() < 0.55:
                            survivors.add(node)
                changed = True
                while changed:
                    changed = False
                    for node in list(survivors):
                        for up in graph.direct_generalizations(node):
                            if up not in survivors:
                                survivors.add(up)
                                changed = True
                ordered = sorted(survivors, key=LatticeNode.sort_key)
                next_graph = graph_generation(ordered, graph, qi)

                expected_nodes = set()
                for attrs in itertools.combinations(qi, size + 1):
                    ranges = [range(heights[a] + 1) for a in attrs]
                    for levels in itertools.product(*ranges):
                        node = LatticeNode(attrs, levels)
                        if all(
                            node.subset(subset) in survivors
                            for subset in itertools.combinations(attrs, size)
                        ):
                            expected_nodes.add(node)
                assert set(next_graph.nodes) == expected_nodes

                expected_edges = {
                    (a, b)
                    for a in expected_nodes
                    for b in expected_nodes
                    if b.is_direct_generalization_of(a)
                }
                assert set(next_graph.edges()) == expected_edges
                graph = next_graph

    def test_levels_above_255_match_bruteforce(self):
        """Levels need more than eight bits; the graphs still match brute force."""
        rng = random.Random(29)
        qi = ("A", "B", "C")
        heights = {"A": 300, "B": 1, "C": 2}
        for _ in range(3):
            graph = initial_graph(qi, heights)
            for size in range(1, 3):
                survivors = _upward_closed(graph, rng, 0.02)
                next_graph = graph_generation(list(survivors), graph, qi)

                expected_nodes = set()
                for attrs in itertools.combinations(qi, size + 1):
                    ranges = [range(heights[a] + 1) for a in attrs]
                    for levels in itertools.product(*ranges):
                        node = LatticeNode(attrs, levels)
                        if all(
                            node.subset(subset) in survivors
                            for subset in itertools.combinations(attrs, size)
                        ):
                            expected_nodes.add(node)
                assert set(next_graph.nodes) == expected_nodes

                expected_edges = set()
                for node in expected_nodes:
                    for attribute, level in node.items():
                        up = node.with_level(attribute, level + 1)
                        if up in expected_nodes:
                            expected_edges.add((node, up))
                assert set(next_graph.edges()) == expected_edges
                graph = next_graph


def _upward_closed(graph, rng, share):
    """Pick one node per family and each node with probability ``share``.

    The picks are then closed upward, as the generalization property
    guarantees of real survivor sets.
    """
    survivors = {rng.choice(nodes) for nodes in graph.families().values()}
    survivors.update(node for node in graph if rng.random() < share)
    frontier = list(survivors)
    while frontier:
        for up in graph.direct_generalizations(frontier.pop()):
            if up not in survivors:
                survivors.add(up)
                frontier.append(up)
    return survivors


class TestGraphOrder:
    """Ids, parents and edges come out in one fixed order.

    The search visits nodes in insertion order, and that decides which
    parent a rollup starts from, so the order is part of the result.
    """

    def test_ids_parents_and_edges_follow_node_order(self):
        rng = random.Random(23)
        qi = ("A", "B", "C", "D")
        heights = {"A": 2, "B": 1, "C": 2, "D": 1}
        for _ in range(40):
            graph = initial_graph(qi, heights)
            for _size in range(1, 4):
                survivors = list(_upward_closed(graph, rng, 0.55))
                rng.shuffle(survivors)
                next_graph = graph_generation(survivors, graph, qi)

                nodes = next_graph.nodes
                assert nodes == sorted(nodes, key=LatticeNode.sort_key)
                for node_id, node in enumerate(nodes, start=1):
                    assert next_graph.id_of(node) == node_id
                    *_, second_to_last, last = node.attributes
                    assert next_graph.parents_of(node_id) == (
                        graph.id_of(node.drop(last)),
                        graph.id_of(node.drop(second_to_last)),
                    )
                edge_ids = [
                    (next_graph.id_of(start), next_graph.id_of(end))
                    for start, end in next_graph.edges()
                ]
                assert edge_ids == sorted(edge_ids)
                assert len(set(edge_ids)) == len(edge_ids)
                graph = next_graph
