"""Checkpoint/resume: atomic persistence, kill-resume equivalence.

The kill-resume tests use a ``CheckpointStore`` subclass that raises
after the Nth successful save — the same crash surface a SIGKILL at a
level boundary exposes, but deterministic.  Every resumed run must
reproduce the uninterrupted run's node set *and* counters exactly, and
must never re-scan a completed level (checked via ``frequency.*``
totals: a re-scan would push the resumed total past the baseline).
"""

from __future__ import annotations

import json

import pytest

from repro.core.binary_search import samarati_binary_search
from repro.core.bottomup import bottom_up_search
from repro.core.cube import cube_incognito
from repro.core.incognito import basic_incognito
from repro.resilience import (
    CheckpointStore,
    FaultPlan,
    frequency_set_from_json,
    frequency_set_to_json,
    node_from_json,
    node_to_json,
    problem_fingerprint,
    use_checkpoints,
)
from tests.conftest import make_random_problem, tiny_numeric_problem


class Killed(RuntimeError):
    """Stands in for the process dying right after a checkpoint save."""


class BombStore(CheckpointStore):
    """A store that dies immediately after its Nth successful save."""

    def __init__(self, path, bomb_after: int) -> None:
        super().__init__(path)
        self.bomb_after = bomb_after

    def save(self, state) -> None:
        super().save(state)
        if self.saves >= self.bomb_after:
            raise Killed(f"killed after save #{self.saves}")


def comparable_counters(stats) -> dict:
    """All counters except wall-clock timings (inherently run-specific)."""
    return {
        key: value
        for key, value in stats.counters.as_dict().items()
        if "seconds" not in key
    }


class TestStore:
    def test_missing_file_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path / "absent.json").load() is None

    def test_save_is_atomic_and_roundtrips(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.json")
        store.save({"format": 1, "payload": [1, 2, 3]})
        assert store.saves == 1
        # No temp litter: the only artifact is the final file.
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
        assert json.loads(store.path.read_text()) == store.load()

    def test_save_replaces_whole_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.json")
        store.save({"a": 1, "stale": True})
        store.save({"a": 2})
        assert store.load() == {"a": 2}

    def test_corrupt_file_is_quarantined_not_fatal(self, tmp_path):
        """Truncated/corrupt checkpoints must never crash a resume.

        The bad file is moved aside with a ``.quarantined`` suffix (kept
        as evidence, never silently deleted) and, with no previous
        snapshot to fall back to, the load reports "start fresh".
        """
        path = tmp_path / "state.json"
        path.write_text("{not json")
        store = CheckpointStore(path)
        assert store.load() is None
        assert not path.exists()
        assert [p.name for p in store.quarantined] == [
            "state.json.quarantined"
        ]
        # Non-object JSON is equally untrustworthy.
        path.write_text("[1, 2]")
        assert CheckpointStore(path).load() is None

    def test_corrupt_file_falls_back_to_previous_level(self, tmp_path):
        """Save rotates the old snapshot aside; load recovers into it."""
        store = CheckpointStore(tmp_path / "state.json")
        store.save({"level": 1})
        store.save({"level": 2})
        assert store.previous_path.exists()
        # Truncate the current file the way power loss mid-replace on a
        # non-atomic filesystem would.
        store.path.write_text('{"level": 2')
        recovered = CheckpointStore(store.path)
        assert recovered.load() == {"level": 1}
        assert recovered.fell_back
        assert len(recovered.quarantined) == 1
        # Both current and previous corrupt: start fresh, both aside.
        both = CheckpointStore(tmp_path / "state.json")
        both.path.write_text("garbage")
        both.previous_path.write_text("also garbage")
        assert both.load() is None
        assert len(both.quarantined) == 2

    def test_clear_removes_rotated_previous_too(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.json")
        store.save({"level": 1})
        store.save({"level": 2})
        store.clear()
        assert not store.path.exists()
        assert not store.previous_path.exists()

    def test_load_matching_rejects_header_drift(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.json")
        store.save({"kind": "incognito", "k": 2, "progress": 1})
        assert store.load_matching({"kind": "incognito", "k": 2}) is not None
        assert store.load_matching({"kind": "incognito", "k": 3}) is None
        assert store.load_matching({"kind": "bottom-up", "k": 2}) is None

    def test_clear_removes_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "state.json")
        store.save({"a": 1})
        store.clear()
        assert store.load() is None
        store.clear()  # idempotent


class TestCodecs:
    def test_fingerprint_is_content_based(self):
        # Two independent constructions of the same data agree...
        assert problem_fingerprint(tiny_numeric_problem()) == (
            problem_fingerprint(tiny_numeric_problem())
        )
        # ...and different data disagrees.
        assert problem_fingerprint(make_random_problem(1)) != (
            problem_fingerprint(make_random_problem(2))
        )

    def test_node_roundtrip(self):
        problem = tiny_numeric_problem()
        lattice = problem.lattice()
        for height in range(lattice.max_height + 1):
            for node in lattice.nodes_at_height(height):
                assert node_from_json(node_to_json(node)) == node

    def test_frequency_set_roundtrip(self):
        from repro.core.anonymity import compute_frequency_set

        problem = tiny_numeric_problem()
        original = compute_frequency_set(problem, problem.bottom_node())
        restored = frequency_set_from_json(
            json.loads(json.dumps(frequency_set_to_json(original))), problem
        )
        assert restored.node == original.node
        assert restored.key_codes.dtype == original.key_codes.dtype
        assert restored.as_dict() == original.as_dict()


class TestKillResume:
    """Killing after level N and resuming must equal the uninterrupted run."""

    def check(self, algorithm, problem, k, tmp_path, bomb_after, resumed_key):
        baseline = algorithm(problem, k)

        path = tmp_path / "run.ckpt.json"
        with pytest.raises(Killed):
            algorithm(problem, k, checkpoint=BombStore(path, bomb_after))
        at_kill = CheckpointStore(path).load()
        assert at_kill is not None and not at_kill.get("completed")
        scans_at_kill = at_kill["counters"].get("frequency.table_scans", 0)

        resumed = algorithm(
            problem, k, checkpoint=CheckpointStore(path), resume=True
        )
        assert resumed.anonymous_nodes == baseline.anonymous_nodes
        assert comparable_counters(resumed.stats) == (
            comparable_counters(baseline.stats)
        )
        assert resumed.details[resumed_key] > 0
        # Completed levels are replayed, not re-scanned: the fresh scans
        # after resume are exactly the baseline's remainder.
        assert (
            resumed.stats.table_scans - scans_at_kill
            == baseline.stats.table_scans - scans_at_kill
        )
        assert resumed.stats.table_scans == baseline.stats.table_scans
        return baseline, resumed

    def test_incognito(self, tmp_path):
        problem = make_random_problem(9, num_rows=60, num_attributes=3)
        self.check(
            basic_incognito, problem, 2, tmp_path, 1, "resumed_iterations"
        )

    def test_cube_incognito(self, tmp_path):
        """The resumed run rebuilds the cube but must not count its build
        scans twice: counters are restored after the provider is built."""
        problem = make_random_problem(9, num_rows=60, num_attributes=3)
        self.check(
            cube_incognito, problem, 2, tmp_path, 1, "resumed_iterations"
        )

    def test_bottom_up(self, tmp_path):
        problem = make_random_problem(17, num_rows=40, num_attributes=3)
        self.check(
            bottom_up_search, problem, 2, tmp_path, 2, "resumed_heights"
        )

    def test_binary_search(self, tmp_path):
        problem = make_random_problem(23, num_rows=60, num_attributes=3)
        baseline, resumed = self.check(
            samarati_binary_search, problem, 2, tmp_path, 2, "resumed_probes"
        )
        assert resumed.details["probes"] == baseline.details["probes"]


#: Each search, the result key counting its replayed levels, and that
#: count for a replay of a completed run.
SEARCHES = [
    pytest.param(
        basic_incognito,
        "resumed_iterations",
        lambda problem, first: len(problem.quasi_identifier),
        id="incognito",
    ),
    pytest.param(
        bottom_up_search,
        "resumed_heights",
        lambda problem, first: problem.lattice().max_height + 1,
        id="bottom-up",
    ),
    pytest.param(
        samarati_binary_search,
        "resumed_probes",
        lambda problem, first: len(first.details["probes"]),
        id="binary-search",
    ),
]


class TestCompletedResume:
    @pytest.mark.parametrize("search,resumed_key,levels", SEARCHES)
    def test_replays_without_any_table_work(
        self, tmp_path, search, resumed_key, levels
    ):
        problem = make_random_problem(9, num_rows=60, num_attributes=3)
        path = tmp_path / "run.ckpt.json"
        first = search(problem, 2, checkpoint=CheckpointStore(path))

        replay = search(
            problem, 2, checkpoint=CheckpointStore(path), resume=True
        )
        assert replay.anonymous_nodes == first.anonymous_nodes
        assert comparable_counters(replay.stats) == (
            comparable_counters(first.stats)
        )
        assert replay.details[resumed_key] == levels(problem, first)
        assert replay.details["checkpoint_saves"] == 0
        # The restored elapsed is the original run's (as of its final
        # save, taken just before the run returned), not this replay's.
        assert 0 < replay.stats.elapsed_seconds <= first.stats.elapsed_seconds

    @pytest.mark.parametrize("search,resumed_key,levels", SEARCHES)
    def test_mismatched_k_starts_fresh(
        self, tmp_path, search, resumed_key, levels
    ):
        problem = make_random_problem(9, num_rows=60, num_attributes=3)
        path = tmp_path / "run.ckpt.json"
        search(problem, 2, checkpoint=CheckpointStore(path))

        fresh = search(
            problem, 3, checkpoint=CheckpointStore(path), resume=True
        )
        assert fresh.details[resumed_key] == 0
        assert fresh.anonymous_nodes == search(problem, 3).anonymous_nodes

    def test_resume_without_checkpoint_file_runs_normally(self, tmp_path):
        problem = tiny_numeric_problem()
        result = basic_incognito(
            problem,
            2,
            checkpoint=CheckpointStore(tmp_path / "never-written.json"),
            resume=True,
        )
        assert result.anonymous_nodes == basic_incognito(problem, 2).anonymous_nodes


class TestRegionDefault:
    def test_fixed_signature_callers_checkpoint_and_resume(self, tmp_path):
        problem = make_random_problem(5, num_rows=50, num_attributes=3)
        with use_checkpoints(tmp_path):
            first = basic_incognito(problem, 2)
        files = list(tmp_path.glob("*.ckpt.json"))
        assert len(files) == 1
        assert files[0].name.startswith("basic-incognito-k2-")

        with use_checkpoints(tmp_path, resume=True):
            replay = basic_incognito(problem, 2)
        assert replay.anonymous_nodes == first.anonymous_nodes
        assert replay.details["resumed_iterations"] == len(
            problem.quasi_identifier
        )

    def test_no_region_default_means_no_files(self, tmp_path):
        problem = tiny_numeric_problem()
        basic_incognito(problem, 2)
        assert list(tmp_path.iterdir()) == []

    def test_distinct_runs_do_not_collide(self, tmp_path):
        with use_checkpoints(tmp_path):
            basic_incognito(make_random_problem(5, num_rows=30), 2)
            basic_incognito(make_random_problem(5, num_rows=30), 3)
            bottom_up_search(make_random_problem(5, num_rows=30), 2)
            basic_incognito(
                make_random_problem(5, num_rows=30), 2, max_suppression=3
            )
        assert len(list(tmp_path.glob("*.ckpt.json"))) == 4

        # The budget-3 run left the budget-0 run's checkpoint intact.
        problem = make_random_problem(5, num_rows=30)
        with use_checkpoints(tmp_path, resume=True):
            replay = basic_incognito(problem, 2)
        assert replay.details["resumed_iterations"] == len(
            problem.quasi_identifier
        )
        assert replay.details["checkpoint_saves"] == 0


class TestCheckpointUnderFaults:
    def test_kill_resume_with_injected_faults(self, tmp_path):
        """The two tentpole halves compose: faults during a checkpointed
        run don't change what resume reconstructs."""
        from repro.parallel import ExecutionConfig

        problem = make_random_problem(9, num_rows=60, num_attributes=3)
        baseline = basic_incognito(problem, 2)
        execution = ExecutionConfig(
            mode="threads",
            workers=2,
            faults=FaultPlan(crash_rate=0.2, timeout_rate=0.1, seed=7),
            chunk_timeout=0.25,
            backoff_base=0.001,
            backoff_cap=0.01,
        )
        path = tmp_path / "run.ckpt.json"
        with pytest.raises(Killed):
            basic_incognito(
                problem,
                2,
                execution=execution,
                checkpoint=BombStore(path, 1),
            )
        resumed = basic_incognito(
            problem,
            2,
            execution=execution,
            checkpoint=CheckpointStore(path),
            resume=True,
        )
        assert resumed.anonymous_nodes == baseline.anonymous_nodes
        assert resumed.stats.table_scans == baseline.stats.table_scans
