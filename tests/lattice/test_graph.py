"""Tests for candidate graphs and their relational export (Figure 6)."""

import pytest

from repro.lattice.graph import CandidateGraph
from repro.lattice.lattice import GeneralizationLattice
from repro.lattice.node import LatticeNode


def sz(levels) -> LatticeNode:
    return LatticeNode(("Sex", "Zipcode"), levels)


def figure3_graph() -> CandidateGraph:
    return CandidateGraph.from_lattice(
        GeneralizationLattice(("Sex", "Zipcode"), (1, 2))
    )


class TestBasics:
    def test_ids_start_at_one(self):
        graph = CandidateGraph()
        assert graph.add_node(sz((0, 0))) == 1
        assert graph.add_node(sz((1, 0))) == 2

    def test_add_node_idempotent(self):
        graph = CandidateGraph()
        first = graph.add_node(sz((0, 0)))
        second = graph.add_node(sz((0, 0)))
        assert first == second
        assert len(graph) == 1

    def test_id_round_trip(self):
        graph = figure3_graph()
        for node in graph.nodes:
            assert graph.node_of(graph.id_of(node)) == node

    def test_id_of_missing(self):
        with pytest.raises(KeyError):
            CandidateGraph().id_of(sz((0, 0)))

    def test_contains(self):
        graph = figure3_graph()
        assert sz((1, 2)) in graph
        assert LatticeNode(("Sex",), (0,)) not in graph

    def test_parents_recorded(self):
        graph = CandidateGraph()
        graph.add_node(sz((0, 0)), parents=(3, 7))
        assert graph.parents_of(sz((0, 0))) == (3, 7)
        assert graph.parents_of(1) == (3, 7)


class TestEdges:
    def test_add_edge_deduplicates(self):
        graph = CandidateGraph()
        graph.add_node(sz((0, 0)))
        graph.add_node(sz((1, 0)))
        graph.add_edge(sz((0, 0)), sz((1, 0)))
        graph.add_edge(sz((0, 0)), sz((1, 0)))
        assert graph.num_edges() == 1

    def test_direct_generalizations(self):
        graph = figure3_graph()
        gens = set(graph.direct_generalizations(sz((0, 0))))
        assert gens == {sz((1, 0)), sz((0, 1))}

    def test_direct_specializations(self):
        graph = figure3_graph()
        specs = set(graph.direct_specializations(sz((1, 2))))
        assert specs == {sz((0, 2)), sz((1, 1))}

    def test_roots_of_full_lattice_is_bottom(self):
        graph = figure3_graph()
        assert graph.roots() == [sz((0, 0))]

    def test_roots_of_fragmented_graph(self):
        graph = CandidateGraph()
        graph.add_node(sz((1, 0)))
        graph.add_node(sz((0, 2)))
        graph.add_node(sz((1, 2)))
        graph.add_edge(sz((1, 0)), sz((1, 2)))
        graph.add_edge(sz((0, 2)), sz((1, 2)))
        assert set(graph.roots()) == {sz((1, 0)), sz((0, 2))}


class TestFamilies:
    def test_single_family(self):
        graph = figure3_graph()
        families = graph.families()
        assert list(families) == [("Sex", "Zipcode")]
        assert len(families[("Sex", "Zipcode")]) == 6

    def test_mixed_families(self):
        graph = CandidateGraph()
        graph.add_node(LatticeNode(("a",), (0,)))
        graph.add_node(LatticeNode(("b",), (0,)))
        graph.add_node(LatticeNode(("b",), (1,)))
        sizes = {family: len(nodes) for family, nodes in graph.families().items()}
        assert sizes == {("a",): 1, ("b",): 2}


class TestRelationalExport:
    def test_figure6_nodes_relation(self):
        """Figure 6: six nodes, columns ID, dim1, index1, dim2, index2."""
        nodes_table, _ = figure3_graph().to_tables()
        assert nodes_table.schema.names == (
            "ID", "dim1", "index1", "dim2", "index2",
        )
        assert nodes_table.num_rows == 6
        first = nodes_table.row(0)
        assert first == (1, "Sex", 0, "Zipcode", 0)

    def test_figure6_edges_relation(self):
        _, edges_table = figure3_graph().to_tables()
        assert edges_table.schema.names == ("start", "end")
        assert edges_table.num_rows == 7
        edge_pairs = set(edges_table.iter_rows())
        # spot-check Figure 6's listed edges via node ids
        graph = figure3_graph()
        assert (
            graph.id_of(sz((0, 0))), graph.id_of(sz((1, 0)))
        ) in edge_pairs

    def test_empty_graph_exports_empty_tables(self):
        nodes_table, edges_table = CandidateGraph().to_tables()
        assert nodes_table.num_rows == 0
        assert edges_table.num_rows == 0

    def test_mixed_sizes_rejected(self):
        graph = CandidateGraph()
        graph.add_node(LatticeNode(("a",), (0,)))
        graph.add_node(LatticeNode(("a", "b"), (0, 0)))
        with pytest.raises(ValueError, match="mixed"):
            graph.to_tables()
