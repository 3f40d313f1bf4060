"""The run flags both command lines share, pinned on each program.

``python -m repro`` and ``python -m repro.bench.run_figures`` take the
same observability flags (``--trace``, ``--trace-format``,
``--metrics-out``, ``--profile``, ``--cache-mb``) and the same execution
flags (``--workers`` and friends).  Every case here runs once per
program: the CLI anonymizes the Patients CSV, and the figure runner runs
Basic Incognito on the Patients problem in place of its artifacts, so
both stay fast.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.bench import run_figures
from repro.cli import main as cli_main
from repro.core.fscache import current_cache
from repro.core.incognito import basic_incognito
from repro.datasets.patients import patients_problem, patients_table
from repro.obs.stitch import validate_chrome
from repro.parallel import ExecutionConfig, current_execution
from repro.relational.csvio import write_csv

SPEC = {
    "Birthdate": {"type": "suppression"},
    "Sex": {"type": "suppression", "suppressed": "Person"},
    "Zipcode": {"type": "rounding", "digits": 5, "height": 2},
}


def _patients_artifacts(args, records):
    basic_incognito(patients_problem(), 2)


@pytest.fixture(params=["repro", "run_figures"])
def run(request, tmp_path, monkeypatch):
    """Run one program with the given run flags; returns its exit code."""
    if request.param == "repro":
        csv_path = tmp_path / "patients.csv"
        write_csv(patients_table(), csv_path)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))

        def invoke(flags):
            return cli_main([
                *flags,
                "anonymize", str(csv_path),
                "--hierarchies", str(spec_path),
                "--k", "2",
                "--output", str(tmp_path / "released.csv"),
            ])
    else:
        monkeypatch.setattr(run_figures, "_run_artifacts", _patients_artifacts)

        def invoke(flags):
            return run_figures.main([*flags, "--out", str(tmp_path / "out")])

    return invoke


def test_chrome_trace_is_a_valid_document(run, tmp_path):
    path = tmp_path / "trace.json"
    assert run(["--trace", str(path), "--trace-format", "chrome"]) == 0
    document = json.loads(path.read_text())
    validate_chrome(document)
    assert document["traceEvents"]


def test_folded_trace_has_a_scan_frame(run, tmp_path):
    path = tmp_path / "trace.folded"
    assert run(["--trace", str(path), "--trace-format", "folded"]) == 0
    lines = path.read_text().splitlines()
    assert lines
    frames = set()
    for line in lines:
        stack, value = line.rsplit(" ", 1)
        assert int(value) >= 0
        frames.update(stack.split(";"))
    assert "scan" in frames


def test_metrics_out_writes_a_json_object(run, tmp_path):
    path = tmp_path / "metrics.json"
    assert run(["--metrics-out", str(path)]) == 0
    assert isinstance(json.loads(path.read_text()), dict)


@pytest.mark.parametrize(
    "flags",
    [["--trace-format", "chrome"], ["--workers", "0"]],
    ids=["format-without-trace", "zero-workers"],
)
def test_bad_values_are_usage_errors(run, flags):
    with pytest.raises(SystemExit) as exit_info:
        run(flags)
    assert exit_info.value.code == 2


def test_the_run_leaves_no_region_installed(run, tmp_path):
    code = run([
        "--trace", str(tmp_path / "trace.jsonl"),
        "--metrics-out", str(tmp_path / "metrics.json"),
        "--workers", "2",
        "--parallel-mode", "threads",
        "--cache-mb", "4",
    ])
    assert code == 0
    assert not obs.enabled()
    assert current_execution() == ExecutionConfig()
    assert current_cache() is None


def test_trace_creates_a_missing_directory(run, tmp_path):
    path = tmp_path / "missing" / "trace.jsonl"
    assert run(["--trace", str(path)]) == 0
    records = obs.read_json_lines(path.read_text().splitlines())
    assert "scan" in {record["name"] for record in records}


def test_a_usage_error_opens_no_trace_file(run, tmp_path):
    kept = tmp_path / "kept.jsonl"
    kept.write_text("earlier\n")
    fresh = tmp_path / "new" / "trace.jsonl"
    for path in (kept, fresh):
        with pytest.raises(SystemExit) as exit_info:
            run(["--workers", "0", "--trace", str(path)])
        assert exit_info.value.code == 2
    assert kept.read_text() == "earlier\n"
    assert not fresh.parent.exists()


def test_negative_cache_budget_is_a_usage_error(run):
    with pytest.raises(SystemExit) as exit_info:
        run(["--cache-mb", "-5"])
    assert exit_info.value.code == 2
