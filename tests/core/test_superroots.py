"""Tests for Super-roots Incognito (Section 3.3.1)."""

import gc
import tracemalloc
import weakref

import pytest

from repro.core import superroots
from repro.core.anonymity import FrequencyEvaluator
from repro.core.superroots import (
    SuperRootProvider,
    family_meet,
    superroots_incognito,
)
from repro.core.incognito import basic_incognito, run_incognito
from repro.datasets.landsend import landsend_problem
from repro.datasets.patients import patients_problem
from repro.lattice.graph import CandidateGraph
from repro.lattice.node import LatticeNode
from repro.parallel import ExecutionConfig
from tests.conftest import make_random_problem


class TestFamilyMeet:
    def test_paper_example(self):
        """Section 3.3.1: roots ⟨B1,S1,Z0⟩, ⟨B1,S0,Z2⟩, ⟨B0,S1,Z2⟩ →
        super-root ⟨B0,S0,Z0⟩."""
        attrs = ("Birthdate", "Sex", "Zipcode")
        roots = [
            LatticeNode(attrs, (1, 1, 0)),
            LatticeNode(attrs, (1, 0, 2)),
            LatticeNode(attrs, (0, 1, 2)),
        ]
        assert family_meet(roots) == LatticeNode(attrs, (0, 0, 0))

    def test_single_root_is_its_own_meet(self):
        node = LatticeNode(("a",), (3,))
        assert family_meet([node]) == node

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            family_meet([])

    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            family_meet(
                [LatticeNode(("a",), (0,)), LatticeNode(("b",), (0,))]
            )


class TestSuperrootsIncognito:
    def test_same_answers_as_basic(self):
        problem = patients_problem()
        assert (
            superroots_incognito(problem, 2).anonymous_nodes
            == basic_incognito(problem, 2).anonymous_nodes
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [2, 4])
    def test_random_agreement_with_basic(self, seed, k):
        problem = make_random_problem(seed + 300)
        assert (
            superroots_incognito(problem, k).anonymous_nodes
            == basic_incognito(problem, k).anonymous_nodes
        )

    def test_fewer_table_scans_than_basic_when_graphs_fragment(self):
        """With a >2-attribute QI and pruning, families develop multiple
        roots and the super-root saves scans."""
        problem = make_random_problem(3, num_attributes=4, num_rows=25)
        basic = basic_incognito(problem, 3)
        better = superroots_incognito(problem, 3)
        assert better.stats.table_scans <= basic.stats.table_scans

    def test_same_nodes_checked(self):
        """The optimization changes how roots are fed, not what is checked."""
        problem = patients_problem()
        assert (
            superroots_incognito(problem, 2).stats.nodes_checked
            == basic_incognito(problem, 2).stats.nodes_checked
        )

    def test_algorithm_label(self):
        result = superroots_incognito(patients_problem(), 2)
        assert result.algorithm == "superroots-incognito"


def _array_refs(frequency_set):
    """Weak references to a set's arrays: all dead once the set's memory
    is free (a view into them would keep them alive)."""
    return [
        weakref.ref(frequency_set.key_codes),
        weakref.ref(frequency_set.counts),
    ]


class TestSuperRootLifetime:
    """At most one family meet is alive, and no set outlives the search."""

    @pytest.mark.parametrize(
        "execution",
        [
            ExecutionConfig(),
            ExecutionConfig(mode="threads", workers=2),
            ExecutionConfig(mode="shards", workers=2),
        ],
        ids=["serial", "threads", "shards"],
    )
    def test_each_meet_dies_before_the_next_is_scanned(
        self, monkeypatch, execution
    ):
        meets: set[LatticeNode] = set()

        def recording_meet(roots):
            meet = family_meet(roots)
            if meet not in roots:  # a meet that is a root lives on as its set
                meets.add(meet)
            return meet

        monkeypatch.setattr(superroots, "family_meet", recording_meet)
        materialize = FrequencyEvaluator.materialize
        meet_refs: list = []
        every_ref: list = []

        def tracking_materialize(self, node, source=None):
            if source is None and node in meets:
                gc.collect()
                assert all(ref() is None for ref in meet_refs), node
                result = materialize(self, node, source)
                meet_refs.extend(_array_refs(result))
            else:
                result = materialize(self, node, source)
            every_ref.extend(_array_refs(result))
            return result

        monkeypatch.setattr(
            FrequencyEvaluator, "materialize", tracking_materialize
        )
        provider = SuperRootProvider()
        problem = make_random_problem(3, num_rows=40, num_attributes=4)
        result = run_incognito(
            problem,
            2,
            provider_factory=lambda _problem, _evaluator: provider,
            algorithm="superroots-incognito",
            execution=execution,
        )
        assert result.anonymous_nodes == basic_incognito(problem, 2).anonymous_nodes
        assert len(meet_refs) >= 4  # at least two meets were scanned
        # The provider is still alive here, and holds no set.
        gc.collect()
        assert all(ref() is None for ref in every_ref)

    def test_meet_equal_to_a_root_serves_that_root_as_is(self):
        """Roots ⟨B0,S0,Z0⟩ and ⟨B1,S1,Z1⟩ with no edge between them (as
        when pruning removed every node in between): the meet is the first
        root, which takes the scan itself, and only the second rolls up."""
        problem = patients_problem()
        attributes = problem.quasi_identifier
        low = LatticeNode(attributes, (0, 0, 0))
        high = LatticeNode(attributes, (1, 1, 1))
        graph = CandidateGraph()
        graph.add_node(low)
        graph.add_node(high)
        assert graph.roots() == [low, high]
        evaluator = FrequencyEvaluator(problem)
        provider = SuperRootProvider()
        provider.prepare(evaluator, graph)
        assert evaluator.stats.table_scans == 1
        assert evaluator.stats.rollups == 1
        for root in (low, high):
            served = provider.root_source(evaluator, root)
            assert served.node == root
            assert served.as_dict() == evaluator.scan(root).as_dict()
            # Handed over once: the provider keeps no reference.
            assert provider.root_source(evaluator, root) is None

    def test_traced_peak_holds_one_meet_at_a_time(self, monkeypatch):
        """Super-roots' traced peak stays within Basic's plus two of its
        largest meet.  When every family's meet was scanned before the
        search and kept for the whole iteration, 20,000 Lands End rows at
        QID 6 peaked at 4.4 MiB against this 2.1 MiB bound (Basic 0.9 MiB,
        largest of 29 meets 0.6 MiB)."""
        problem = landsend_problem(20_000, qi_size=6)
        basic_incognito(problem, 2)  # build the generalized columns first
        meets: set[LatticeNode] = set()

        def recording_meet(roots):
            meet = family_meet(roots)
            meets.add(meet)
            return meet

        monkeypatch.setattr(superroots, "family_meet", recording_meet)

        def traced_peak(algorithm) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                algorithm(problem, 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        basic_peak = traced_peak(basic_incognito)
        super_peak = traced_peak(superroots_incognito)
        evaluator = FrequencyEvaluator(problem)
        largest_meet = max(
            meet_set.key_codes.nbytes + meet_set.counts.nbytes
            for meet_set in map(evaluator.scan, meets)
        )
        assert len(meets) > 2
        assert super_peak <= basic_peak + 2 * largest_meet, (
            super_peak,
            basic_peak,
            largest_meet,
        )
