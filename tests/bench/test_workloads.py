"""Tests for the figure workload builders (at miniature scale)."""

import pytest

from repro.bench.workloads import (
    FIGURE10_QI_SIZES,
    FIGURE11_KS,
    figure10_sweep,
    figure11_sweep,
    figure12_sweep,
    format_nodes_table,
    make_problem,
    nodes_searched_table,
    release_problem,
    shard_scale_sweep,
)
from repro.core.incognito import basic_incognito
from repro.parallel import ExecutionConfig, use_execution

ROWS = 800  # miniature scale: exercise the plumbing, not the timings


class TestMakeProblem:
    def test_adults(self):
        problem = make_problem("adults", 4, rows=ROWS)
        assert len(problem.quasi_identifier) == 4
        assert problem.num_rows == ROWS

    def test_landsend(self):
        problem = make_problem("landsend", 3, rows=ROWS)
        assert len(problem.quasi_identifier) == 3

    def test_unknown_database(self):
        with pytest.raises(ValueError):
            make_problem("nope", 3)

    @pytest.mark.parametrize(
        "execution",
        [
            ExecutionConfig.from_workers(2),
            ExecutionConfig(mode="shards", workers=2),
        ],
        ids=["from-workers", "shards"],
    )
    def test_landsend_is_the_same_in_every_mode(self, execution):
        """``--workers N`` changes timings, never the figures: a sweep
        point has the serial run's rows and Basic Incognito answer."""
        serial = make_problem("landsend", 4, rows=2_000)
        expected = basic_incognito(serial, 2)
        with use_execution(execution):
            problem = make_problem("landsend", 4, rows=2_000)
            try:
                assert problem.table.to_rows() == serial.table.to_rows()
                result = basic_incognito(problem, 2)
            finally:
                release_problem(problem)
        assert result.anonymous_nodes == expected.anonymous_nodes
        assert result.stats.nodes_checked == expected.stats.nodes_checked

    def test_release_problem_is_a_noop_without_store(self):
        release_problem(make_problem("adults", 3, rows=ROWS))


class TestSweepShapes:
    def test_figure10_constants(self):
        assert FIGURE10_QI_SIZES["adults"] == (3, 4, 5, 6, 7, 8, 9)
        assert FIGURE11_KS == (2, 5, 10, 25, 50)

    def test_figure10_miniature(self):
        series = figure10_sweep(
            "adults",
            k=2,
            qi_sizes=[3, 4],
            algorithms=["Basic Incognito", "Binary Search"],
            rows=ROWS,
        )
        assert [line.label for line in series] == [
            "Basic Incognito", "Binary Search",
        ]
        assert all(line.x_values == [3, 4] for line in series)
        assert all(run.elapsed_seconds > 0 for line in series for run in line.runs)

    def test_figure11_miniature(self):
        series = figure11_sweep("landsend", ks=[2, 5], rows=ROWS)
        labels = [line.label for line in series]
        assert labels == [
            "Binary Search (QID = 6)",
            "Basic Incognito (QID = 8)",
            "Super-roots Incognito (QID = 8)",
        ]
        assert all(line.x_values == [2, 5] for line in series)

    def test_figure12_miniature(self):
        line = figure12_sweep("adults", qi_sizes=[3, 4], rows=ROWS)
        assert line.x_values == [3, 4]
        for run in line.runs:
            assert run.cube_build_seconds > 0
            assert run.anonymization_seconds >= 0

    def test_nodes_searched_miniature(self):
        rows = nodes_searched_table(qi_sizes=[3, 4], rows=ROWS)
        assert [qid for qid, _, _ in rows] == [3, 4]
        for _, bottom_up, incognito in rows:
            assert bottom_up > 0 and incognito > 0

    def test_nodes_table_formatting(self):
        text = format_nodes_table([(3, 14, 14), (4, 47, 35)])
        assert "QID size" in text
        assert "47" in text and "35" in text

    def test_shard_scale_sweep_miniature(self):
        messages = []
        series = shard_scale_sweep(
            rows=2_000,
            workers=2,
            shard_rows=512,
            progress=messages.append,
        )
        assert [line.label for line in series] == [
            "Basic Incognito (serial)", "Basic Incognito (shards)",
        ]
        for line in series:
            # Runs are relabelled so the bench gate keys them apart.
            assert line.runs[0].algorithm == line.label
            assert line.runs[0].elapsed_seconds > 0
        # Same search either way: identical structural accounting.
        serial_run, shard_run = series[0].runs[0], series[1].runs[0]
        assert serial_run.table_scans == shard_run.table_scans
        assert serial_run.solutions == shard_run.solutions
        assert messages and all("shard[" in m for m in messages)

    def test_progress_callback_invoked(self):
        messages = []
        figure10_sweep(
            "adults",
            k=2,
            qi_sizes=[3],
            algorithms=["Basic Incognito"],
            rows=ROWS,
            progress=messages.append,
        )
        assert messages and "fig10" in messages[0]
