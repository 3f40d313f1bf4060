"""Job model: spec validation, JSON round trips, state machine basics."""

from __future__ import annotations

import pytest

from repro.service.jobs import (
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    AdmissionError,
    JobRecord,
    JobSpec,
    JobValidationError,
    job_id_for,
)


def valid_spec(**overrides) -> JobSpec:
    fields = dict(dataset="builtin:adults", k=2)
    fields.update(overrides)
    return JobSpec(**fields)


class TestSpecValidation:
    def test_valid_spec_passes(self):
        valid_spec(
            algorithm="bottomup",
            mode="shards",
            workers=2,
            shard_rows=512,
            deadline_seconds=1.5,
        ).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dataset": ""},
            {"k": 0},
            {"k": "2"},
            {"algorithm": "datafly"},  # not checkpointable: excluded
            {"algorithm": "nope"},
            {"mode": "gpu"},
            {"workers": 0},
            {"shard_rows": 0},
            {"max_suppression": -1},
            {"deadline_seconds": 0},
            {"deadline_seconds": -2.0},
            {"tenant": ""},
        ],
    )
    def test_malformed_fields_are_rejected(self, overrides):
        with pytest.raises(JobValidationError):
            valid_spec(**overrides).validate()


class TestRetiredProcessesMode:
    def test_processes_spec_still_validates_and_runs(self):
        """Specs written before ``processes`` was retired (in a write-ahead
        log, say) still validate and give the serial answer."""
        from repro.service import runner

        data = {"dataset": "builtin:adults?rows=300&qi=3", "k": 2}
        spec = JobSpec.from_json({**data, "mode": "processes", "workers": 2})
        spec.validate()
        assert runner.comparable(runner.run_job_inline(spec)) == (
            runner.comparable(runner.run_job_inline(JobSpec.from_json(data)))
        )

    def test_shards_spec_still_validates_and_runs(self):
        """Specs naming the ``shards`` worker pool (in a write-ahead log,
        say) still validate and give the serial answer."""
        from repro.service import runner

        data = {"dataset": "builtin:adults?rows=300&qi=3", "k": 2}
        spec = JobSpec.from_json({**data, "mode": "shards", "workers": 2})
        spec.validate()
        assert runner.comparable(runner.run_job_inline(spec)) == (
            runner.comparable(runner.run_job_inline(JobSpec.from_json(data)))
        )


class TestSpecJson:
    def test_roundtrip(self):
        spec = valid_spec(
            qi=("age", "sex"),
            hierarchies={"age": {"type": "rounding", "digits": 2}},
            mode="threads",
            workers=2,
            tenant="acme",
        )
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_qi_serialises_as_list(self):
        assert valid_spec(qi=("age",)).to_json()["qi"] == ["age"]

    def test_unknown_fields_rejected(self):
        with pytest.raises(JobValidationError, match="retries"):
            JobSpec.from_json({"dataset": "adults", "k": 2, "retries": 9})


class TestRecord:
    def test_roundtrip(self):
        record = JobRecord(
            id=job_id_for(7),
            seq=7,
            spec=valid_spec(),
            state=FAILED,
            attempt=3,
            cause="deadline exceeded (1s)",
            resumed=True,
            recovered=True,
        )
        restored = JobRecord.from_json(record.to_json())
        assert restored == record
        assert restored.terminal and not restored.active

    def test_unknown_state_rejected(self):
        data = JobRecord(id="j1", seq=1, spec=valid_spec()).to_json()
        data["state"] = "exploded"
        with pytest.raises(JobValidationError):
            JobRecord.from_json(data)

    def test_terminal_states(self):
        assert TERMINAL_STATES == {SUCCEEDED, FAILED, CANCELLED}
        assert QUEUED not in TERMINAL_STATES
        assert RUNNING not in TERMINAL_STATES

    def test_summary_carries_triage_fields(self):
        record = JobRecord(id="j1", seq=1, spec=valid_spec(tenant="acme"))
        summary = record.summary()
        assert summary["tenant"] == "acme"
        assert summary["state"] == QUEUED
        assert "spec" not in summary  # list endpoint stays light

    def test_job_ids_sort_with_sequence(self):
        assert job_id_for(1) == "j00000001"
        assert job_id_for(2) > job_id_for(1)
        assert job_id_for(100) > job_id_for(99)


class TestAdmissionError:
    def test_reason_and_detail(self):
        error = AdmissionError("queue_full", "queue depth 16 is at the limit")
        assert error.reason == "queue_full"
        assert "queue depth" in str(error)
        assert isinstance(error, Exception)
