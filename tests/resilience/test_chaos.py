"""Chaos suite: full algorithms under injected faults (CI's chaos job).

Hypothesis generates random problems and runs Incognito on a fault-ridden
thread pool; a dedicated seed-listed case runs the ISSUE acceptance plan —
``FaultPlan(crash_rate=0.2, timeout_rate=0.1, seed=7)`` — on a real
process pool.  In every case the anonymous node set and all
``frequency.*`` counters must be bit-identical to the serial no-fault
run: fault injection may cost retries and wall-clock, never answers.  A
last case SIGKILLs a process holding a ``shards`` pool and checks that its
workers exit by themselves.

Run with ``pytest -m chaos``; the CI job uses ``HYPOTHESIS_PROFILE=ci``
for derandomized, reproducible examples.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import basic_incognito, bottom_up_search
from repro.parallel import ExecutionConfig
from repro.resilience import FaultPlan
from repro.shard import sweep_orphans
from tests.conftest import make_random_problem

pytestmark = pytest.mark.chaos

#: The ISSUE acceptance fault plan, verbatim.
ACCEPTANCE_PLAN = FaultPlan(crash_rate=0.2, timeout_rate=0.1, seed=7)


def frequency_counters(result) -> dict:
    return {
        key: value
        for key, value in result.stats.counters.as_dict().items()
        if key.startswith("frequency.")
    }


def chaotic_threads(seed: int) -> ExecutionConfig:
    """A two-worker thread pool with a mixed, seeded fault plan.

    Short stalls and near-zero backoff keep hypothesis examples fast while
    still driving every failure path (crash, timeout, poison).
    """
    return ExecutionConfig(
        mode="threads",
        workers=2,
        faults=FaultPlan(
            crash_rate=0.15,
            timeout_rate=0.1,
            poison_rate=0.1,
            seed=seed,
            hold_seconds=0.2,
        ),
        chunk_timeout=0.1,
        backoff_base=0.001,
        backoff_cap=0.01,
    )


@given(seed=st.integers(0, 2**20), k=st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_incognito_differential_under_faults(seed, k):
    problem = make_random_problem(seed)
    serial = basic_incognito(problem, k)
    chaotic = basic_incognito(problem, k, execution=chaotic_threads(seed))
    assert chaotic.anonymous_nodes == serial.anonymous_nodes
    assert frequency_counters(chaotic) == frequency_counters(serial)


@given(seed=st.integers(0, 2**20), k=st.integers(1, 6))
@settings(max_examples=10, deadline=None)
def test_bottom_up_differential_under_faults(seed, k):
    problem = make_random_problem(seed)
    serial = bottom_up_search(problem, k)
    chaotic = bottom_up_search(problem, k, execution=chaotic_threads(seed))
    assert chaotic.anonymous_nodes == serial.anonymous_nodes
    assert frequency_counters(chaotic) == frequency_counters(serial)


def test_acceptance_plan_on_process_pool():
    """The acceptance criterion's fixed-seed case on a real process pool.

    Seed-listed rather than hypothesis-driven because a process pool per
    generated example would dominate the suite's runtime (the same
    trade-off ``tests/differential`` makes).
    """
    execution = ExecutionConfig(
        mode="processes",
        workers=2,
        faults=ACCEPTANCE_PLAN,
        chunk_timeout=0.25,
        backoff_base=0.001,
        backoff_cap=0.01,
    )
    injected_total = 0
    for seed in (3, 11, 42):
        problem = make_random_problem(seed, num_rows=30)
        for k in (2, 3):
            serial = basic_incognito(problem, k)
            chaotic = basic_incognito(problem, k, execution=execution)
            assert chaotic.anonymous_nodes == serial.anonymous_nodes, seed
            assert frequency_counters(chaotic) == frequency_counters(serial)
            injected_total += sum(
                value
                for key, value in chaotic.stats.counters.as_dict().items()
                if key.startswith("fault.injected.")
            )
    # The plan must have actually fired somewhere across the matrix —
    # otherwise this test silently degrades into the no-fault differential.
    assert injected_total > 0


REPO = Path(__file__).resolve().parents[2]

#: A parent that runs one ``shards`` batch under the start method named by
#: its argument, starts one more child (under ``fork`` it inherits a copy of
#: every worker's parent sentinel), prints the pool's mode, its ``fault.*``
#: counters, its workers' pids and the extra child's pid, and then idles
#: until it is killed.
ORPHANING_PARENT = """
import json
import multiprocessing
import sys
import time

from repro.core.anonymity import FrequencyEvaluator
from repro.parallel import BatchMaterializer, ExecutionConfig
from tests.conftest import tiny_numeric_problem

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    problem = tiny_numeric_problem()
    requests = [(node, None) for node in problem.lattice().nodes()]
    evaluator = FrequencyEvaluator(problem)
    pool = BatchMaterializer(problem, ExecutionConfig(mode="shards", workers=2))
    pool.materialize_batch(evaluator, requests)
    faults = {
        key: value
        for key, value in evaluator.stats.counters.as_dict().items()
        if key.startswith("fault.")
    }
    workers = sorted(pool._executor._processes)
    keeper = multiprocessing.Process(target=time.sleep, args=(600,))
    keeper.start()
    print(json.dumps([pool.mode, faults, workers, keeper.pid]), flush=True)
    time.sleep(600)
"""


def running(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie awaiting its reaper does not."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("start_method", multiprocessing.get_all_start_methods())
def test_shard_workers_exit_when_their_parent_is_killed(tmp_path, start_method):
    """A SIGKILLed parent cannot shut its pool down; its workers must
    notice and exit by themselves, or they block forever and keep the
    run's shared-memory segments alive.  The watchdog must not fire while
    the parent lives: the batch runs in ``shards`` with no crash or
    demotion, under every start method."""
    script = tmp_path / "parent.py"
    script.write_text(ORPHANING_PARENT)
    manifests = tmp_path / "manifests"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]),
        REPRO_SHM_MANIFEST_DIR=str(manifests),
    )
    parent = subprocess.Popen(
        [sys.executable, str(script), start_method],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    workers: list[int] = []
    keeper = None
    try:
        ready, _, _ = select.select([parent.stdout], [], [], 60.0)
        assert ready, (
            f"the parent never reported its workers within 60 s "
            f"(exit status {parent.poll()})"
        )
        line = parent.stdout.readline()
        assert line, f"the parent exited ({parent.poll()}) before reporting"
        mode, faults, workers, keeper = json.loads(line)
        assert (mode, faults) == ("shards", {}), (
            f"the batch ran in mode {mode!r} with fault counters {faults}"
        )
        assert len(workers) == 2, f"the parent reported workers {workers}"
        assert all(map(running, workers)), (
            f"workers {[pid for pid in workers if not running(pid)]} of "
            f"{workers} had exited before the parent was killed"
        )
        parent.kill()
        parent.wait(timeout=10.0)
        died = time.monotonic()
        deadline = time.monotonic() + 10.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        alive = [pid for pid in workers if running(pid)]
        assert alive == [], (
            f"workers {alive} of {workers} still ran "
            f"{time.monotonic() - died:.1f} s after the parent died"
        )
    finally:
        parent.kill()
        parent.wait(timeout=10.0)
        for pid in [*workers, keeper] if keeper else workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
        sweep_orphans(manifests)
