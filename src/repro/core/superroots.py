"""Super-roots Incognito (paper Section 3.3.1).

Because of a-priori pruning, an iteration's candidate nodes need not form
lattices, so one attribute-subset "family" can contribute several roots.
Basic Incognito scans the base table once per root; Super-roots instead
scans once per *family*, at the greatest lower bound of the family's roots
(the "super-root" — the paper's example computes ⟨B0, S0, Z0⟩ for roots
⟨B1, S1, Z0⟩, ⟨B1, S0, Z2⟩, ⟨B0, S1, Z2⟩), then derives each root's
frequency set by rollup.

One family at a time, the meet is rolled up to all of its roots and
dropped before the next family's meet is scanned: at most one nearly
table-sized meet is alive, and the search receives each root's own set.

Note the paper's prose says "least upper bound", but its example computes
the componentwise *minimum* — the only direction rollup can go — so we
implement the greatest lower bound, matching the example.
"""

from __future__ import annotations

from repro import obs
from repro.core.anonymity import FrequencyEvaluator, FrequencySet
from repro.core.incognito import RootProvider, run_incognito
from repro.core.problem import PreparedTable
from repro.core.result import AnonymizationResult
from repro.lattice.graph import CandidateGraph
from repro.lattice.node import LatticeNode


def family_meet(roots: list[LatticeNode]) -> LatticeNode:
    """Greatest lower bound of same-family nodes: componentwise min level."""
    if not roots:
        raise ValueError("empty family")
    attributes = roots[0].attributes
    for root in roots[1:]:
        if root.attributes != attributes:
            raise ValueError(
                f"mixed families: {root.attributes} vs {attributes}"
            )
    levels = tuple(
        min(root.levels[position] for root in roots)
        for position in range(len(attributes))
    )
    return LatticeNode(attributes, levels)


class SuperRootProvider(RootProvider):
    """Scan once per family at the family meet; roll up to each root."""

    def __init__(self) -> None:
        self._root_sets: dict[LatticeNode, FrequencySet] = {}

    def prepare(self, evaluator: FrequencyEvaluator, graph: CandidateGraph) -> None:
        families: dict[tuple[str, ...], list[LatticeNode]] = {}
        for root in graph.roots():
            families.setdefault(root.attributes, []).append(root)
        # A lone root gains nothing from a super-root: the engine scans it.
        shared = [roots for roots in families.values() if len(roots) > 1]
        with obs.span(
            "superroots.prepare", families=len(families), super_roots=len(shared)
        ):
            for roots in shared:
                # materialize (not scan) so an attached cache can serve the
                # super-root and gets to keep it for other algorithms.
                meet = evaluator.materialize(family_meet(roots))
                for root in roots:
                    self._root_sets[root] = evaluator.materialize(root, meet)
                del meet  # free it before the next family's scan

    def root_source(
        self, evaluator: FrequencyEvaluator, node: LatticeNode
    ) -> FrequencySet | None:
        # The root's own set, handed over once; None for a lone root.
        return self._root_sets.pop(node, None)


def superroots_incognito(
    problem: PreparedTable,
    k: int,
    *,
    max_suppression: int = 0,
    execution=None,
    cache=None,
    checkpoint=None,
    resume: bool = False,
) -> AnonymizationResult:
    """Super-roots Incognito (Section 3.3.1)."""
    return run_incognito(
        problem,
        k,
        max_suppression=max_suppression,
        provider_factory=lambda _problem, _evaluator: SuperRootProvider(),
        algorithm="superroots-incognito",
        execution=execution,
        cache=cache,
        checkpoint=checkpoint,
        resume=resume,
    )
