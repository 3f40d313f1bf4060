"""Tests for the command-line interface."""

import json
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.datasets.patients import patients_table, voter_table
from repro.relational.csvio import read_csv, write_csv

README = Path(__file__).resolve().parents[2] / "README.md"


def readme_commands():
    """``(line, arguments)`` of every ``python -m repro`` command in README.md.

    Backslash continuations are joined; commands holding a ``...``
    placeholder are left out.
    """
    lines = README.read_text().splitlines()
    commands = []
    index = 0
    while index < len(lines):
        first = index + 1
        _, found, text = lines[index].partition("python -m repro ")
        while text.endswith("\\"):
            index += 1
            text = text[:-1] + " " + lines[index]
        if found and "..." not in text:
            commands.append((first, text))
        index += 1
    return commands


@pytest.fixture
def patients_csv(tmp_path):
    path = tmp_path / "patients.csv"
    write_csv(patients_table(), path)
    return path


@pytest.fixture
def voters_csv(tmp_path):
    path = tmp_path / "voters.csv"
    write_csv(voter_table(), path)
    return path


@pytest.fixture
def spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "Birthdate": {"type": "suppression"},
                "Sex": {"type": "suppression", "suppressed": "Person"},
                "Zipcode": {"type": "rounding", "digits": 5, "height": 2},
            }
        )
    )
    return path


class TestAnonymize:
    def test_writes_anonymous_csv(self, patients_csv, spec_json, tmp_path, capsys):
        out = tmp_path / "released.csv"
        code = main([
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "2",
            "--output", str(out),
        ])
        assert code == 0
        released = read_csv(out)
        assert released.num_rows == 6
        from repro.core.anonymity import check_k_anonymity

        assert check_k_anonymity(released, ["Birthdate", "Sex", "Zipcode"], 2)
        assert "selected generalization" in capsys.readouterr().out

    def test_show_all_lists_solutions(self, patients_csv, spec_json, capsys):
        code = main([
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "2", "--show-all",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("height") >= 5

    def test_weights_steer_selection(self, patients_csv, spec_json, capsys):
        code = main([
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "2", "--weights", "Sex=10",
        ])
        assert code == 0
        assert "Sex=0" in capsys.readouterr().out

    def test_infeasible_k_fails(self, patients_csv, spec_json, capsys):
        code = main([
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "99",
        ])
        assert code == 1
        assert "no 99-anonymous" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm",
        ["basic", "superroots", "cube", "binary", "bottomup", "datafly"],
    )
    def test_every_algorithm_selectable(
        self, patients_csv, spec_json, algorithm
    ):
        code = main([
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "2", "--algorithm", algorithm,
        ])
        assert code == 0

    def test_qi_subset(self, patients_csv, spec_json, capsys):
        code = main([
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "2", "--qi", "Sex,Zipcode",
        ])
        assert code == 0


class TestCheck:
    def test_raw_patients_not_anonymous(self, patients_csv, capsys):
        code = main([
            "check", str(patients_csv),
            "--qi", "Birthdate,Sex,Zipcode", "--k", "2",
        ])
        assert code == 1
        assert "2-anonymous: NO" in capsys.readouterr().out

    def test_trivial_k1_passes(self, patients_csv, capsys):
        code = main([
            "check", str(patients_csv),
            "--qi", "Birthdate,Sex,Zipcode", "--k", "1",
        ])
        assert code == 0
        assert "1-anonymous: YES" in capsys.readouterr().out


class TestAttack:
    def test_attack_on_raw_release(self, voters_csv, patients_csv, capsys):
        code = main([
            "attack", str(voters_csv), str(patients_csv),
            "--qi", "Birthdate,Sex,Zipcode",
        ])
        assert code == 1  # someone is uniquely re-identified
        assert "uniquely re-identified" in capsys.readouterr().out

    def test_attack_on_anonymous_release(
        self, voters_csv, patients_csv, spec_json, tmp_path, capsys
    ):
        out = tmp_path / "released.csv"
        main([
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "2", "--output", str(out),
        ])
        code = main([
            "attack", str(voters_csv), str(out),
            "--qi", "Birthdate,Sex,Zipcode",
        ])
        assert code == 0  # nobody links uniquely


class TestParsing:
    def test_bad_weights_rejected(self, patients_csv, spec_json):
        with pytest.raises(SystemExit):
            main([
                "anonymize", str(patients_csv),
                "--hierarchies", str(spec_json),
                "--k", "2", "--weights", "oops",
            ])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestReadmeCommands:
    def test_every_command_parses(self):
        commands = readme_commands()
        assert len(commands) >= 20
        failures = []
        for line, command in commands:
            try:
                build_parser().parse_args(shlex.split(command, comments=True))
            except SystemExit:
                failures.append(f"README.md:{line}: python -m repro {command}")
        assert failures == []


class TestObservabilityFlags:
    def test_trace_writes_json_lines(
        self, patients_csv, spec_json, tmp_path, capsys
    ):
        from repro.obs import read_json_lines

        trace = tmp_path / "trace.jsonl"
        code = main([
            "--trace", str(trace),
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "2",
            "--output", str(tmp_path / "out.csv"),
        ])
        assert code == 0
        records = read_json_lines(trace.read_text().splitlines())
        names = {record["name"] for record in records}
        assert {"scan", "rollup", "groupby"} <= names

    def test_trace_leaves_global_tracer_disabled(
        self, patients_csv, spec_json, tmp_path
    ):
        from repro import obs

        main([
            "--trace", str(tmp_path / "t.jsonl"),
            "check", str(patients_csv),
            "--qi", "Birthdate,Sex,Zipcode", "--k", "1",
        ])
        assert not obs.enabled()

    @pytest.mark.parametrize("incremental", [False, True], ids=["plain", "append"])
    def test_metrics_out_holds_the_run_instruments(
        self, patients_csv, spec_json, tmp_path, incremental
    ):
        metrics = tmp_path / "metrics.json"
        code = main([
            "--metrics-out", str(metrics),
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "2",
            "--output", str(tmp_path / "out.csv"),
            *(["--append", str(patients_csv)] if incremental else []),
        ])
        assert code == 0
        dump = json.loads(metrics.read_text())
        assert {"latency.scan_seconds", "latency.level_seconds"} <= set(dump)

    def test_profile_prints_hotspots(
        self, patients_csv, spec_json, tmp_path, capsys
    ):
        code = main([
            "--profile",
            "anonymize", str(patients_csv),
            "--hierarchies", str(spec_json),
            "--k", "2",
            "--output", str(tmp_path / "out.csv"),
        ])
        assert code == 0
        assert "function calls" in capsys.readouterr().err
