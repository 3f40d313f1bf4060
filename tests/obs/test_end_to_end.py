"""End-to-end: trace spans must agree with the legacy SearchStats numbers.

The acceptance bar for the observability layer is that it measures the
*same* events the paper's cost model counts: every ``scan`` span is one
``SearchStats.table_scans``, every ``rollup`` span one ``rollups``.
"""

import pytest

from repro import obs
from repro.core.cube import cube_incognito
from repro.core.incognito import basic_incognito
from repro.datasets.adults import adults_problem
from repro.obs import InMemorySink, Tracer

ROWS = 800
QI_SIZE = 3
K = 2


@pytest.fixture(scope="module")
def problem():
    return adults_problem(ROWS, qi_size=QI_SIZE)


def _traced(algorithm, problem):
    sink = InMemorySink()
    with obs.use_tracer(Tracer(sink)):
        result = algorithm(problem, K)
    return sink, result


class TestBasicIncognitoParity:
    def test_scan_and_rollup_spans_match_search_stats(self, problem):
        sink, result = _traced(basic_incognito, problem)
        stats = result.stats
        assert stats.table_scans > 0  # the workload exercised both paths
        assert stats.rollups > 0
        assert sink.count("scan") == stats.table_scans
        assert sink.count("rollup") == stats.rollups

    def test_iteration_spans_cover_every_subset_size(self, problem):
        sink, _ = _traced(basic_incognito, problem)
        sizes = [
            span.attrs["subset_size"]
            for span in sink.named("incognito.iteration")
        ]
        assert sizes == list(range(1, QI_SIZE + 1))

    def test_groupby_spans_nest_under_evaluations(self, problem):
        sink, _ = _traced(basic_incognito, problem)
        groupbys = sink.named("groupby")
        assert groupbys
        evaluation_ids = {
            span.span_id for span in sink.spans if span.name in ("scan", "rollup")
        }
        assert all(span.parent_id in evaluation_ids for span in groupbys)


class TestCubeIncognitoParity:
    def test_projection_spans_match_search_stats(self, problem):
        sink, result = _traced(cube_incognito, problem)
        stats = result.stats
        assert stats.projections > 0
        assert sink.count("project") == stats.projections
        assert sink.count("scan") == stats.table_scans
        assert sink.count("rollup") == stats.rollups
        assert sink.count("cube.build") == 1


class TestTracingIsInert:
    def test_results_identical_with_and_without_tracing(self, problem):
        baseline = basic_incognito(problem, K)
        sink, traced = _traced(basic_incognito, problem)
        assert traced.anonymous_nodes == baseline.anonymous_nodes
        assert traced.stats.table_scans == baseline.stats.table_scans
        assert traced.stats.rollups == baseline.stats.rollups
        assert sink.spans  # and tracing actually recorded something
