"""Checkpoint files written by earlier code must keep resuming.

Each file under ``checkpoints/`` is one search's partial checkpoint: the
search ran at k=2 on a seeded :func:`make_random_problem` and was killed
right after its first level save, as ``BombStore`` does.  The files were
written by the three searches before they shared one run module, and are
committed as they came out.  Resuming one must give the uninterrupted
run's nodes and comparable counters, with resumed levels, and a new run
killed at the same point must save the same state.

Regenerate them only for an intended format change, with
``PYTHONPATH=src python -m tests.resilience.test_checkpoint_format``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core.binary_search import samarati_binary_search
from repro.core.bottomup import bottom_up_search
from repro.core.incognito import basic_incognito
from repro.resilience import CheckpointStore
from tests.conftest import make_random_problem
from tests.resilience.test_checkpoint import (
    BombStore,
    Killed,
    comparable_counters,
)

FIXTURES = Path(__file__).with_name("checkpoints")

#: File stem -> (search, problem seed, the result's resumed-count key).
CASES = {
    "basic-incognito": (basic_incognito, 9, "resumed_iterations"),
    "bottom-up-rollup": (bottom_up_search, 17, "resumed_heights"),
    "binary-search": (samarati_binary_search, 23, "resumed_probes"),
}


def problem_for(seed: int):
    return make_random_problem(seed, num_rows=60, num_attributes=3)


def without_timing(state: dict) -> dict:
    """A saved state minus its wall-clock values."""
    counters = state["counters"]
    return {
        **{key: value for key, value in state.items() if key != "elapsed_seconds"},
        "counters": {
            mode: {
                name: value
                for name, value in values.items()
                if "seconds" not in name
            }
            for mode, values in counters.items()
        },
    }


def run_until_killed(stem: str, path: Path) -> None:
    """Run one case, checkpointing into ``path``; kill it after one save."""
    search, seed, _ = CASES[stem]
    with pytest.raises(Killed):
        search(problem_for(seed), 2, checkpoint=BombStore(path, 1))


@pytest.mark.parametrize("stem", sorted(CASES))
def test_committed_checkpoint_resumes_to_the_uninterrupted_run(stem, tmp_path):
    search, seed, resumed_key = CASES[stem]
    problem = problem_for(seed)
    path = tmp_path / f"{stem}.ckpt.json"
    shutil.copy(FIXTURES / f"{stem}.ckpt.json", path)

    resumed = search(problem, 2, checkpoint=CheckpointStore(path), resume=True)
    baseline = search(problem, 2)
    assert resumed.anonymous_nodes == baseline.anonymous_nodes
    assert comparable_counters(resumed.stats) == comparable_counters(
        baseline.stats
    )
    assert resumed.details[resumed_key] > 0


@pytest.mark.parametrize("stem", sorted(CASES))
def test_a_killed_run_saves_the_committed_state(stem, tmp_path):
    committed = json.loads((FIXTURES / f"{stem}.ckpt.json").read_text())
    path = tmp_path / "run.ckpt.json"
    run_until_killed(stem, path)
    state = json.loads(path.read_text())
    assert set(state) == set(committed)
    assert without_timing(state) == without_timing(committed)


def write_fixtures() -> None:
    """Rewrite every committed checkpoint with the current code."""
    FIXTURES.mkdir(exist_ok=True)
    for stem in CASES:
        path = FIXTURES / f"{stem}.ckpt.json"
        path.unlink(missing_ok=True)
        run_until_killed(stem, path)


if __name__ == "__main__":
    write_fixtures()
