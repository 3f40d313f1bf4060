"""End-to-end tests of the figure runner's JSON export and --trace flag.

The acceptance bar (ISSUE): ``run_figures --quick`` emits a schema-valid
``BENCH_incognito.json`` whose scan/rollup counts for Basic vs Cube
Incognito match a fresh direct run's legacy ``SearchStats`` exactly, and
``--trace`` produces non-empty nested spans for at least the scan, rollup,
and groupby stages.
"""

import json

import pytest

from repro.bench import run_figures
from repro.bench.export import validate_bench_document
from repro.core.cube import cube_incognito
from repro.core.incognito import basic_incognito
from repro.datasets.adults import adults_problem
from repro.obs import read_json_lines


@pytest.fixture(scope="module")
def quick_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    json_path = out / "bench.json"
    trace_path = out / "trace.jsonl"
    code = run_figures.main(
        [
            "--quick",
            "--out", str(out),
            "--json", str(json_path),
            "--trace", str(trace_path),
        ]
    )
    assert code == 0
    return json.loads(json_path.read_text()), trace_path.read_text()


class TestQuickJsonExport:
    def test_document_is_schema_valid(self, quick_output):
        document, _ = quick_output
        assert validate_bench_document(document) == []
        assert document["config"]["quick"] is True
        assert document["config"]["adults_rows"] == run_figures.QUICK_ROWS

    def test_covers_every_algorithm_and_qi_size(self, quick_output):
        document, _ = quick_output
        runs = document["runs"]
        algorithms = {run["algorithm"] for run in runs}
        assert "Basic Incognito" in algorithms
        assert "Cube Incognito" in algorithms
        x_values = {
            run["x_value"] for run in runs if run["figure"] == "fig10"
        }
        assert x_values == set(run_figures.QUICK_QI_SIZES)
        # quick mode also carries the shard/incremental/service workloads
        figures = {run["figure"] for run in runs}
        assert {"fig10", "shard", "incremental", "service"} <= figures

    def test_service_workload_exports_throughput_and_p99(self, quick_output):
        document, _ = quick_output
        service = [
            run for run in document["runs"] if run["figure"] == "service"
        ]
        assert {run["algorithm"] for run in service} == {
            "Service (1 runner)",
            "Service (2 runners)",
        }
        for run in service:
            assert run["solutions"] == run_figures.QUICK_SERVICE_JOBS
            assert run["raw_counters"]["service.jobs_per_second"] > 0
            latency = run["metrics"]["latency.job_total_seconds"]
            assert latency["count"] == run_figures.QUICK_SERVICE_JOBS
            assert latency["p99"] >= latency["p50"] > 0

    def test_counters_match_fresh_search_stats_exactly(self, quick_output):
        """Basic vs Cube scan/rollup numbers in the JSON must equal the
        legacy SearchStats of a fresh identical run (determinism + the
        export reading the right fields)."""
        document, _ = quick_output
        by_key = {
            (run["algorithm"], run["x_value"]): run["counters"]
            for run in document["runs"]
        }
        for qi_size in run_figures.QUICK_QI_SIZES:
            problem = adults_problem(run_figures.QUICK_ROWS, qi_size=qi_size)
            for name, algorithm in (
                ("Basic Incognito", basic_incognito),
                ("Cube Incognito", cube_incognito),
            ):
                stats = algorithm(problem, run_figures.QUICK_K).stats
                counters = by_key[(name, qi_size)]
                assert counters["table_scans"] == stats.table_scans
                assert counters["rollups"] == stats.rollups
                assert counters["projections"] == stats.projections
                assert counters["nodes_checked"] == stats.nodes_checked


class TestQuickTrace:
    def test_trace_has_nested_scan_rollup_groupby_spans(self, quick_output):
        _, trace_text = quick_output
        records = read_json_lines(trace_text.splitlines())
        assert records
        names = {record["name"] for record in records}
        assert {"scan", "rollup", "groupby", "bench.run"} <= names
        # Nesting: group-bys sit under frequency evaluations, which sit
        # under per-run roots.
        groupbys = [r for r in records if r["name"] == "groupby"]
        assert groupbys and all(r["depth"] >= 1 for r in groupbys)
        roots = [r for r in records if r["parent_id"] is None]
        assert all(r["name"] == "bench.run" for r in roots)
        deepest = max(record["depth"] for record in records)
        assert deepest >= 2


def test_resumed_quick_sweep_reports_each_runs_own_counters(tmp_path):
    """A ``--resume`` of a ``--checkpoint`` sweep replays every run as
    itself: no figure line may pick up another line's checkpoint."""

    def sweep(name, *extra):
        path = tmp_path / f"{name}.json"
        code = run_figures.main(
            [
                "--quick",
                "--checkpoint", str(tmp_path / "checkpoints"),
                "--out", str(tmp_path / name),
                "--json", str(path),
                *extra,
            ]
        )
        assert code == 0
        return json.loads(path.read_text())["runs"]

    def untimed(run):
        return {
            key: value
            for key, value in run["raw_counters"].items()
            if "second" not in key
        }

    fresh = sweep("fresh")
    resumed = sweep("resumed", "--resume")
    assert len(resumed) == len(fresh)
    for before, after in zip(fresh, resumed):
        label = (before["figure"], before["algorithm"], before["x_value"])
        assert (after["figure"], after["algorithm"], after["x_value"]) == label
        assert untimed(after) == untimed(before), label
