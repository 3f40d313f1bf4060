"""Service chaos suite: crash the server and its runners, lose nothing.

Drives a *real* ``repro serve`` process (spawned with its own process
group so a SIGKILL takes the server and every job subprocess with it —
a machine-crash stand-in) through the full robustness contract:

* seeded job-level fault injection crashes and hangs runners mid-flight
  (``crash=0.4,timeout=0.2,seed=113`` — chosen so job seq 1 crashes on
  its first attempt and runs clean afterwards, guaranteeing a
  resumed-then-succeeded witness);
* the server itself is SIGKILLed mid-job and restarted on the same data
  directory, which must recover every non-terminal job from the WAL;
* every submitted job ends terminal — succeeded (possibly after resume)
  or failed with a recorded cause — and every succeeded job's result is
  bit-identical to a direct in-process batch run of the same spec;
* overload is an explicit 429, never unbounded queueing;
* once all jobs are terminal and the server has drained, no checkpoint,
  heartbeat, or shared-memory segment is left orphaned.

This is the suite the CI ``service-chaos`` job runs.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import runner
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.jobs import JobSpec
from tests.service.conftest import job_payload, write_dataset_csv

pytestmark = pytest.mark.chaos

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

FAULT_SPEC = "crash=0.4,timeout=0.2,seed=113"

SERVE_ARGS = [
    "--max-running", "2",
    "--max-queue", "16",
    "--tenant-budget", "2",
    "--max-attempts", "5",
    "--heartbeat-timeout", "3.0",
]


class LiveService:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(
        self,
        data_dir: Path,
        env: dict,
        label: str,
        fault_spec: str | None = FAULT_SPEC,
    ) -> None:
        command = [sys.executable, "-m", "repro.cli", "serve", str(data_dir)]
        command += SERVE_ARGS
        if fault_spec:
            command += ["--inject-job-faults", fault_spec]
        self.data_dir = data_dir
        self.log = open(data_dir.parent / f"server-{label}.log", "w")
        self.process = subprocess.Popen(
            command,
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            start_new_session=True,  # own pgid: killpg == machine crash
        )
        self.client = self._connect()

    def _connect(self, timeout: float = 60.0) -> ServiceClient:
        """Wait for *this* process's server.json, then for /healthz."""
        info_path = self.data_dir / "server.json"
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            assert self.process.poll() is None, (
                f"server died during startup (exit {self.process.returncode})"
            )
            try:
                info = json.loads(info_path.read_text())
            except (OSError, json.JSONDecodeError):
                info = None
            if info and info.get("pid") == self.process.pid:
                client = ServiceClient(info["host"], int(info["port"]))
                client.wait_reachable(timeout)
                return client
            time.sleep(0.1)
        raise TimeoutError("server never published server.json")

    def sigkill_group(self) -> None:
        """The machine-crash: SIGKILL the server and all its runners."""
        os.killpg(self.process.pid, signal.SIGKILL)
        self.process.wait(timeout=30)
        self.log.close()

    def sigterm_and_wait(self, timeout: float = 60.0) -> int:
        self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=timeout)
        self.log.close()
        return code

    def ensure_dead(self) -> None:
        if self.process.poll() is None:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait(timeout=30)
        if not self.log.closed:
            self.log.close()


@pytest.fixture
def service_env(tmp_path, monkeypatch):
    manifest_dir = tmp_path / "shm-manifest"
    monkeypatch.setenv("REPRO_SHM_MANIFEST_DIR", str(manifest_dir))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_SHM_MANIFEST_DIR"] = str(manifest_dir)
    return env


def wait_for_resumed_run(client: ServiceClient, timeout: float = 120.0) -> None:
    """Block until an injected crash has already forced a resume *and*
    some job is mid-execution — so the SIGKILL that follows lands after
    the fault-injection story has started, not before.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            counters = client.metrics()["counters"]
            jobs = client.jobs()
        except ServiceUnavailable:
            time.sleep(0.1)
            continue
        resumed = counters.get("service.jobs_resumed", 0)
        running = any(job["state"] == "running" for job in jobs)
        if resumed >= 1 and running:
            return
        time.sleep(0.05)
    raise TimeoutError("no resumed attempt observed before the kill window")


def assert_no_orphan_artifacts(data_dir: Path) -> None:
    """After full terminality + drain: no resume machinery left behind."""
    from repro.shard.manifest import read_entries, sweep_orphans

    jobs_dir = data_dir / "jobs"
    leftovers = [
        path
        for job_dir in (sorted(jobs_dir.iterdir()) if jobs_dir.exists() else [])
        for path in job_dir.iterdir()
        if path.name
        in (
            runner.CHECKPOINT_FILE,
            runner.CHECKPOINT_FILE + ".prev",
            runner.HEARTBEAT_FILE,
        )
    ]
    assert leftovers == [], f"orphaned job artifacts: {leftovers}"
    sweep_orphans()  # reap anything the SIGKILLed group left behind
    assert read_entries() == [], "orphaned shared-memory segments remain"


def test_server_kill_restart_recovers_every_job(tmp_path, service_env):
    data_dir = tmp_path / "svc"
    data_dir.mkdir()
    dataset = write_dataset_csv(tmp_path)

    server = LiveService(data_dir, service_env, label="first")
    try:
        # Four jobs across tenants (budget is 2 per tenant): a crash-prone
        # basic run, a bottom-up run, a shard-mode run, and a job that
        # must miss its deadline (seq 4 draws ``timeout`` on attempt 0
        # under seed 113, so its first attempt hangs after one checkpoint).
        submissions = [
            job_payload(dataset, tenant="t-a"),
            job_payload(dataset, algorithm="bottomup", tenant="t-b"),
            job_payload(
                dataset,
                mode="shards",
                workers=2,
                shard_rows=4,
                tenant="t-c",
            ),
            job_payload(dataset, deadline_seconds=0.5, tenant="t-d"),
        ]
        ids = {}
        for name, payload in zip("ABCD", submissions):
            status, body = server.client.submit(payload)
            assert status == 202, body
            ids[name] = body["id"]

        # Overload: the third same-tenant submission must be refused
        # explicitly while the first two are still active (they hold the
        # tenant's whole budget for seconds; the refusal is not racy).
        greedy = []
        for _ in range(2):
            status, body = server.client.submit(
                job_payload(dataset, tenant="greedy")
            )
            assert status == 202
            greedy.append(body["id"])
        status, body = server.client.submit(
            job_payload(dataset, tenant="greedy")
        )
        assert status == 429 and body["reason"] == "tenant_budget"

        # Machine crash while at least one runner is mid-job — and only
        # after the seeded crash injection has already forced a resume
        # (job A's ``resumed`` flag is persisted, so the witness survives
        # whatever the kill interrupts next).
        wait_for_resumed_run(server.client)
        server.sigkill_group()

        server = LiveService(data_dir, service_env, label="second")
        recovered = server.client.metrics()["counters"].get(
            "service.jobs_recovered", 0
        )
        assert recovered >= 1, "the kill interrupted nothing?"

        terminal = {
            job_id: server.client.wait_terminal(
                job_id, timeout=300, tolerate_downtime=True
            )
            for job_id in list(ids.values()) + greedy
        }

        # Every job is terminal; failures carry a recorded cause.
        for job_id, record in terminal.items():
            assert record["state"] in ("succeeded", "failed"), record
            if record["state"] == "failed":
                assert record["cause"], f"failed job {job_id} without a cause"

        # The impossible deadline is a terminal failure, never a retry loop.
        assert terminal[ids["D"]]["state"] == "failed"
        assert "deadline exceeded" in terminal[ids["D"]]["cause"]

        # Seq 1 drew an injected crash on attempt 0 (seed 113), so job A
        # is the guaranteed resumed-then-succeeded witness.
        assert terminal[ids["A"]]["state"] == "succeeded"
        assert terminal[ids["A"]]["resumed"]
        assert terminal[ids["A"]]["attempt"] >= 2

        # The other well-formed jobs also converge to success within the
        # attempt budget (their draw sequences each contain a clean run).
        for name in "BC":
            assert terminal[ids[name]]["state"] == "succeeded", terminal[
                ids[name]
            ]

        # Bit-identity: every succeeded job equals a direct batch run of
        # its (persisted, spill-rewritten) spec — crashes, hangs, kills,
        # and resumes along the way must not change a single byte.
        compared = 0
        for job_id, record in terminal.items():
            if record["state"] != "succeeded":
                continue
            status, result = server.client.result(job_id)
            assert status == 200
            oracle = runner.run_job_inline(JobSpec.from_json(record["spec"]))
            assert runner.comparable(result) == runner.comparable(oracle), (
                f"job {job_id} diverged from the direct batch run"
            )
            compared += 1
        assert compared >= 3

        # Graceful exit: SIGTERM drains and returns success.
        assert server.sigterm_and_wait() == 0
        assert_no_orphan_artifacts(data_dir)
    finally:
        server.ensure_dead()


def test_killed_runner_still_stitches_to_one_valid_trace(
    tmp_path, service_env
):
    """Chaos meets the stitcher: a job whose first attempt is crashed by
    fault injection must still produce a *single* valid Chrome trace —
    the resumed attempt continues the trace id minted at submission, the
    crashed attempt's never-closed spans are dropped (not orphaned), and
    timestamps stay monotonic per lane across server/runner/worker
    processes.
    """
    from repro.obs.context import TraceContext
    from repro.obs.stitch import stitch_directory, validate_chrome

    data_dir = tmp_path / "svc"
    data_dir.mkdir()
    dataset = write_dataset_csv(tmp_path)

    caller = TraceContext.root().child_of(0xC0FFEE)
    server = LiveService(data_dir, service_env, label="stitch")
    try:
        # Job seq 1 draws an injected crash on attempt 0 (seed 113) and
        # runs clean afterwards; shards mode adds worker processes to
        # the trace.
        status, body = server.client.submit(
            job_payload(dataset, mode="shards", workers=2, shard_rows=4),
            traceparent=caller.to_traceparent(),
        )
        assert status == 202, body
        job_id = body["id"]

        record = server.client.wait_terminal(job_id, timeout=300)
        assert record["state"] == "succeeded", record
        assert record["resumed"] and record["attempt"] >= 2
        assert server.sigterm_and_wait() == 0
    finally:
        server.ensure_dead()

    # The whole service tree stitches into one validated trace ...
    chrome, summary = stitch_directory(data_dir)
    validate_chrome(chrome)
    # ... on exactly the trace id the client propagated: submit span,
    # both attempts' surviving spans, and worker chunks all share it.
    assert summary["trace_ids"] == [caller.trace_id]
    assert len(summary["processes"]) >= 3, summary  # server, runner, workers
    assert summary["resolved_links"] >= 2, summary

    names = [
        event["name"]
        for event in chrome["traceEvents"]
        if event["ph"] == "B"
    ]
    assert "service.job.submit" in names
    assert "worker.chunk" in names
    # Attempt 0 was SIGKILLed mid-run: its service.job.run span never
    # closed and must be dropped, leaving exactly the resumed attempt's.
    assert names.count("service.job.run") == 1

    # The job directory alone also stitches and stays on the same trace.
    _, job_summary = stitch_directory(data_dir / "jobs" / job_id)
    assert job_summary["trace_ids"] == [caller.trace_id]


def live_group_members(pgid: int) -> list[int]:
    """Pids in process group ``pgid`` that still run (zombies excluded)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited while we looked
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_server_sigkill_leaves_no_live_process_behind(tmp_path, service_env):
    """SIGKILL the server alone, not its group, while a runner works.

    Nobody is left to kill or reap the runner, so it must finish its
    attempt on its own (it still writes ``result.json``) and then leave
    with everything else the server started: once the attempt ends, no
    process of the server's group may still run.
    """
    data_dir = tmp_path / "svc"
    data_dir.mkdir()
    server = LiveService(data_dir, service_env, label="orphan", fault_spec=None)
    pgid = server.process.pid
    try:
        status, body = server.client.submit(
            {"dataset": "builtin:adults?rows=45222&qi=8", "k": 2}
        )
        assert status == 202, body
        job_dir = data_dir / "jobs" / body["id"]
        deadline = time.monotonic() + 60.0
        while not (job_dir / runner.HEARTBEAT_FILE).exists():
            assert time.monotonic() < deadline, "the runner never started"
            time.sleep(0.01)

        server.process.kill()  # the server's pid only
        server.process.wait(timeout=30)
        assert live_group_members(pgid), "nothing was left running to orphan"

        deadline = time.monotonic() + 120.0
        while runner.read_result(job_dir) is None:
            assert time.monotonic() < deadline, "the orphaned attempt never ended"
            time.sleep(0.05)
        assert runner.read_result(job_dir)["status"] == "succeeded"

        deadline = time.monotonic() + 10.0
        while live_group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert live_group_members(pgid) == []
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.ensure_dead()


def test_sigterm_mid_job_drains_then_resumes_cleanly(tmp_path, service_env):
    data_dir = tmp_path / "svc"
    data_dir.mkdir()
    dataset = write_dataset_csv(tmp_path)

    server = LiveService(data_dir, service_env, label="drain", fault_spec=None)
    try:
        status, body = server.client.submit(job_payload(dataset))
        assert status == 202
        job_id = body["id"]
        # Drain while the runner is (at most) mid-flight.  Whether the
        # job finished, checkpointed, or had not started, the restarted
        # server must carry it to the same terminal result.
        assert server.sigterm_and_wait() == 0

        replay_state = json.loads(
            (data_dir / "jobs.snapshot.json").read_text()
        )["jobs"][0]["state"]
        assert replay_state in ("queued", "succeeded")

        server = LiveService(data_dir, service_env, label="drain2", fault_spec=None)
        record = server.client.wait_terminal(job_id, timeout=300)
        assert record["state"] == "succeeded"
        status, result = server.client.result(job_id)
        assert status == 200
        oracle = runner.run_job_inline(JobSpec.from_json(record["spec"]))
        assert runner.comparable(result) == runner.comparable(oracle)

        assert server.sigterm_and_wait() == 0
        assert_no_orphan_artifacts(data_dir)
    finally:
        server.ensure_dead()
