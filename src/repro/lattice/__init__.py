"""Multi-attribute generalization lattices and candidate graphs.

* :class:`~repro.lattice.node.LatticeNode` — a domain vector over a subset of
  the quasi-identifier: attribute names plus a generalization level for each
  (paper Section 2, Figure 3).
* :class:`~repro.lattice.lattice.GeneralizationLattice` — the complete
  lattice over a fixed attribute set, with direct-generalization edges,
  heights, and distance vectors.
* :class:`~repro.lattice.graph.CandidateGraph` — the per-iteration candidate
  node/edge graph of the Incognito algorithm, exportable to the relational
  nodes/edges representation of Figure 6.
* :mod:`~repro.lattice.generation` — the a-priori graph-generation step
  of Section 3.1.2 (join, prune and edge generation), run on packed
  ``(rank, level)`` keys and graph ids.
"""

from repro.lattice.generation import graph_generation, initial_graph
from repro.lattice.graph import CandidateGraph
from repro.lattice.lattice import GeneralizationLattice
from repro.lattice.node import LatticeNode

__all__ = [
    "CandidateGraph",
    "GeneralizationLattice",
    "LatticeNode",
    "graph_generation",
    "initial_graph",
]
