"""Candidate generalization graphs (paper Sections 3.1.1-3.1.2).

Each Incognito iteration works over a graph whose nodes are multi-attribute
generalizations of the iteration's candidate attribute subsets and whose
edges are direct multi-attribute generalization relationships.  The paper
stores the graph as two relations (Figure 6); :meth:`CandidateGraph.to_tables`
reproduces that representation exactly, while the in-memory form uses integer
node ids and adjacency lists for the search itself.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

from repro.lattice.node import LatticeNode
from repro.relational.schema import Schema
from repro.relational.table import Table


class CandidateGraph:
    """A set of candidate nodes plus direct-generalization edges.

    Node ids are assigned in insertion order starting at 1 (matching the
    paper's Figure 6 numbering).  ``parents[node]`` optionally records the
    two nodes of the previous iteration whose join produced this node —
    the raw material of the edge-generation phase.
    """

    def __init__(self) -> None:
        self._nodes: list[LatticeNode] = []
        self._ids: dict[LatticeNode, int] = {}
        self._out: dict[int, list[int]] = defaultdict(list)
        self._in: dict[int, list[int]] = defaultdict(list)
        self._parents: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self, node: LatticeNode, parents: tuple[int, int] | None = None
    ) -> int:
        """Insert ``node`` (idempotent); return its id."""
        existing = self._ids.get(node)
        if existing is not None:
            return existing
        node_id = len(self._nodes) + 1
        self._nodes.append(node)
        self._ids[node] = node_id
        if parents is not None:
            self._parents[node_id] = parents
        return node_id

    def add_edge(self, start: LatticeNode | int, end: LatticeNode | int) -> None:
        start_id = start if isinstance(start, int) else self.id_of(start)
        end_id = end if isinstance(end, int) else self.id_of(end)
        if end_id not in self._out[start_id]:
            self._out[start_id].append(end_id)
            self._in[end_id].append(start_id)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: LatticeNode) -> bool:
        return node in self._ids

    def __iter__(self) -> Iterator[LatticeNode]:
        return iter(self._nodes)

    @property
    def nodes(self) -> list[LatticeNode]:
        return list(self._nodes)

    def id_of(self, node: LatticeNode) -> int:
        try:
            return self._ids[node]
        except KeyError:
            raise KeyError(f"{node} is not in this graph") from None

    def node_of(self, node_id: int) -> LatticeNode:
        return self._nodes[node_id - 1]

    def parents_of(self, node: LatticeNode | int) -> tuple[int, int] | None:
        node_id = node if isinstance(node, int) else self.id_of(node)
        return self._parents.get(node_id)

    def edges(self) -> Iterator[tuple[LatticeNode, LatticeNode]]:
        for start_id, ends in sorted(self._out.items()):
            for end_id in ends:
                yield self.node_of(start_id), self.node_of(end_id)

    def num_edges(self) -> int:
        return sum(len(ends) for ends in self._out.values())

    def direct_generalizations(self, node: LatticeNode | int) -> list[LatticeNode]:
        node_id = node if isinstance(node, int) else self.id_of(node)
        return [self.node_of(end) for end in self._out.get(node_id, ())]

    def direct_generalization_ids(self, node_id: int) -> tuple[int, ...]:
        """Ids of the ends of ``node_id``'s edges, in insertion order."""
        return tuple(self._out.get(node_id, ()))

    def direct_specializations(self, node: LatticeNode | int) -> list[LatticeNode]:
        node_id = node if isinstance(node, int) else self.id_of(node)
        return [self.node_of(start) for start in self._in.get(node_id, ())]

    def roots(self) -> list[LatticeNode]:
        """Nodes with no incoming direct-generalization edge."""
        return [
            node
            for node_id, node in enumerate(self._nodes, start=1)
            if not self._in.get(node_id)
        ]

    def families(self) -> dict[tuple[str, ...], list[LatticeNode]]:
        """Group nodes by attribute set (the paper's root 'families')."""
        grouped: dict[tuple[str, ...], list[LatticeNode]] = defaultdict(list)
        for node in self._nodes:
            grouped[node.attributes].append(node)
        return dict(grouped)

    # ------------------------------------------------------------------
    # relational export (Figure 6)
    # ------------------------------------------------------------------
    def to_tables(self) -> tuple[Table, Table]:
        """Export as the (Nodes, Edges) relations of Figure 6.

        The Nodes relation has columns ``ID, dim1, index1, ..., dimI, indexI``
        where I is the attribute-subset size (all nodes in one candidate
        graph share it); Edges has ``start, end``.
        """
        if not self._nodes:
            nodes_table = Table.from_rows(Schema.of("ID"), [])
            edges_table = Table.from_rows(Schema.of("start", "end"), [])
            return nodes_table, edges_table
        size = self._nodes[0].size
        if any(node.size != size for node in self._nodes):
            raise ValueError("mixed subset sizes cannot export to one relation")
        names = ["ID"]
        for position in range(1, size + 1):
            names.extend([f"dim{position}", f"index{position}"])
        rows = []
        for node_id, node in enumerate(self._nodes, start=1):
            row: list = [node_id]
            for attribute, level in node.items():
                row.extend([attribute, level])
            rows.append(tuple(row))
        nodes_table = Table.from_rows(Schema.of(*names), rows)
        edge_rows = [(start, end) for start, ends in self._out.items() for end in ends]
        edges_table = Table.from_rows(Schema.of("start", "end"), sorted(edge_rows))
        return nodes_table, edges_table

    @classmethod
    def from_lattice(cls, lattice) -> "CandidateGraph":
        """Materialise a full :class:`GeneralizationLattice` as a graph."""
        graph = cls()
        for node in lattice.breadth_first():
            graph.add_node(node)
        for start, end in lattice.edges():
            graph.add_edge(start, end)
        return graph

    def __repr__(self) -> str:
        return f"CandidateGraph(nodes={len(self)}, edges={self.num_edges()})"
