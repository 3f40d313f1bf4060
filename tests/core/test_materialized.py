"""Tests for strategic materialization (future work §7)."""

import pytest

from repro.core.anonymity import FrequencyEvaluator
from repro.core.incognito import basic_incognito
from repro.core.materialized import (
    MaterializedCubeProvider,
    materialized_incognito,
    waypoint_inventory,
)
from repro.datasets.patients import patients_problem
from tests.conftest import make_random_problem


class TestProvider:
    def test_zero_set_always_materialized(self):
        problem = patients_problem()
        provider = MaterializedCubeProvider(problem, FrequencyEvaluator(problem))
        for attributes, sets in provider._materialized.items():
            assert sets[-1].node.height == 0  # zero-gen is the fallback

    def test_budget_fraction_validated(self):
        problem = patients_problem()
        with pytest.raises(ValueError):
            MaterializedCubeProvider(
                problem, FrequencyEvaluator(problem), budget_fraction=0
            )
        with pytest.raises(ValueError):
            MaterializedCubeProvider(
                problem, FrequencyEvaluator(problem), budget_fraction=1.5
            )

    def test_waypoints_are_comparable_and_smaller(self):
        problem = patients_problem()
        provider = MaterializedCubeProvider(
            problem, FrequencyEvaluator(problem), budget_fraction=0.9
        )
        for sets in provider._materialized.values():
            zero = sets[-1]
            for waypoint in sets[:-1]:
                assert waypoint.node.generalizes(zero.node)
                assert waypoint.num_groups <= zero.num_groups

    def test_served_sets_match_direct_scans(self):
        from repro.core.anonymity import compute_frequency_set

        problem = patients_problem()
        evaluator = FrequencyEvaluator(problem)
        provider = MaterializedCubeProvider(problem, evaluator)
        for node in problem.lattice().nodes():
            served = evaluator.materialize(
                node, provider.root_source(evaluator, node)
            )
            direct = compute_frequency_set(problem, node)
            assert served.as_dict() == direct.as_dict(), str(node)

    def test_materialized_counts(self):
        problem = patients_problem()
        provider = MaterializedCubeProvider(problem, FrequencyEvaluator(problem))
        counts = provider.materialized_counts()
        assert len(counts) == 7  # every non-empty QI subset
        assert all(count >= 1 for count in counts.values())


class TestMaterializedIncognito:
    def test_same_answers_as_basic(self):
        problem = patients_problem()
        assert (
            materialized_incognito(problem, 2).anonymous_nodes
            == basic_incognito(problem, 2).anonymous_nodes
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 1.0])
    def test_random_agreement(self, seed, fraction):
        problem = make_random_problem(seed + 1_000)
        assert (
            materialized_incognito(
                problem, 2, budget_fraction=fraction
            ).anonymous_nodes
            == basic_incognito(problem, 2).anonymous_nodes
        )

    def test_single_scan(self):
        result = materialized_incognito(patients_problem(), 2)
        assert result.stats.table_scans == 1

    def test_suppression_threshold(self):
        problem = patients_problem()
        assert (
            materialized_incognito(problem, 2, max_suppression=2).anonymous_nodes
            == basic_incognito(problem, 2, max_suppression=2).anonymous_nodes
        )

    def test_algorithm_label(self):
        result = materialized_incognito(patients_problem(), 2)
        assert result.algorithm == "materialized-incognito"


class TestWaypointInventory:
    def test_reports_all_subsets(self):
        inventory = waypoint_inventory(patients_problem())
        assert len(inventory) == 7
        for waypoints in inventory.values():
            assert waypoints  # at least the zero set
