"""CI observability smoke: live server, real scrape, real stitch.

Drives one `repro serve` subprocess end-to-end through every surface
DESIGN.md §14 promises, with strict validation at each step:

1. serve with tight SLO thresholds and a fast sampler cadence;
2. submit a shards-mode job carrying a client `traceparent`, wait for
   success;
3. watch the job's latency breach the (deliberately impossible) p99 SLO
   — /healthz must degrade to 503 naming `p99_latency` — then recover
   to 200 once the window slides past it;
4. scrape `GET /metrics?format=prometheus` and round-trip it through
   the strict exposition parser; fetch `GET /metrics/history`;
5. render `repro status` against the live server;
6. SIGTERM-drain (exit 0), then stitch the data directory with the
   `repro trace stitch` CLI and assert the result is one *valid* Chrome
   trace on exactly the client's trace id, spanning server + runner +
   worker processes.

Run from the repo root with PYTHONPATH=src:

    python scripts/obs_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.obs.context import TraceContext  # noqa: E402
from repro.obs.stitch import validate_chrome  # noqa: E402
from repro.obs.telemetry import parse_exposition  # noqa: E402
from repro.service.client import ServiceClient, ServiceUnavailable  # noqa: E402

SERVE_ARGS = [
    "--max-running", "2",
    "--slo-p99-seconds", "0.001",  # any real job breaches this
    "--slo-queue-depth", "64",
    "--sample-interval", "0.2",
]

DATASET_ROWS = [
    "age,sex,disease",
    *(
        f"{age},{sex},flu"
        for age in (21, 22, 33, 34, 45, 46)
        for sex in ("M", "F")
    ),
]

JOB = {
    "k": 2,
    "algorithm": "basic",
    "qi": ["age", "sex"],
    "hierarchies": {
        "age": {"type": "rounding", "digits": 2},
        "sex": {"type": "suppression"},
    },
    "mode": "shards",
    "workers": 2,
    "shard_rows": 4,
}


def wait_for(predicate, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise TimeoutError(f"timed out waiting for {what}")


def connect(data_dir: Path, process: subprocess.Popen) -> ServiceClient:
    def try_connect():
        assert process.poll() is None, (
            f"server died during startup (exit {process.returncode})"
        )
        try:
            info = json.loads((data_dir / "server.json").read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if info.get("pid") != process.pid:
            return None
        return ServiceClient(info["host"], int(info["port"]))

    client = wait_for(try_connect, 60.0, "server.json")
    client.wait_reachable(60.0)
    return client


def healthz_status(client: ServiceClient) -> tuple[int, dict]:
    try:
        return client.request("GET", "/healthz")
    except ServiceUnavailable:
        return 0, {}


def main() -> int:
    workspace = Path(tempfile.mkdtemp(prefix="obs-smoke-"))
    data_dir = workspace / "svc"
    data_dir.mkdir()
    dataset = workspace / "people.csv"
    dataset.write_text("\n".join(DATASET_ROWS) + "\n")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )

    server_log = open(workspace / "server.log", "w")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(data_dir)]
        + SERVE_ARGS,
        env=env,
        stdout=server_log,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        client = connect(data_dir, process)
        print("server up", flush=True)

        # -- one traced job --------------------------------------------
        caller = TraceContext.root().child_of(0xABCDEF)
        status, body = client.submit(
            {**JOB, "dataset": f"csv:{dataset}"},
            traceparent=caller.to_traceparent(),
        )
        assert status == 202, (status, body)
        job_id = body["id"]
        record = client.wait_terminal(job_id, timeout=120)
        assert record["state"] == "succeeded", record
        print(f"job {job_id} succeeded", flush=True)

        # -- SLO breach and recovery -----------------------------------
        status, health = wait_for(
            lambda: (lambda s: s if s[0] == 503 else None)(
                healthz_status(client)
            ),
            timeout=30.0,
            what="healthz degradation after the breach",
        )
        breached = [e["name"] for e in health["slo"]["breached"]]
        assert "p99_latency" in breached, health["slo"]
        print(f"healthz degraded: {breached}", flush=True)
        wait_for(
            lambda: healthz_status(client)[0] == 200,
            timeout=30.0,
            what="healthz recovery once the window slides",
        )
        print("healthz recovered", flush=True)

        # -- prometheus + history --------------------------------------
        families = parse_exposition(client.metrics_prometheus())
        for family, kind in (
            ("repro_service_jobs_submitted_total", "counter"),
            ("repro_slo_breaches_total", "counter"),
            ("repro_queue_depth", "gauge"),
            ("repro_latency_job_total_seconds", "histogram"),
        ):
            assert families.get(family, {}).get("type") == kind, (
                f"{family} missing or not a {kind}"
            )
        print(f"prometheus exposition valid ({len(families)} families)",
              flush=True)

        history = client.metrics_history()
        assert history["samples"], "empty history ring"
        latest = history["samples"][-1]
        assert {"ts", "counters", "deltas", "gauges"} <= set(latest)
        print(f"history has {len(history['samples'])} sample(s)", flush=True)

        # -- repro status ----------------------------------------------
        rendered = subprocess.run(
            [sys.executable, "-m", "repro.cli", "status", str(data_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        assert rendered.startswith("server:"), rendered
        assert "slo:" in rendered and job_id not in rendered  # terminal
        print("repro status rendered", flush=True)

        # -- graceful drain --------------------------------------------
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=60)
        assert code == 0, f"drain exited {code}"
        print("server drained", flush=True)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        server_log.close()

    # -- stitch through the CLI ----------------------------------------
    stitched_path = workspace / "stitched.chrome.json"
    stitch = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "trace", "stitch",
            str(data_dir), "--output", str(stitched_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    print(f"stitch: {stitch.stderr.strip()}", flush=True)
    chrome = json.loads(stitched_path.read_text())
    validate_chrome(chrome)

    metadata = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
    processes = {e["pid"] for e in metadata}
    assert len(processes) >= 3, (
        f"expected server+runner+workers, saw {len(processes)} process(es)"
    )
    names = {e["name"] for e in chrome["traceEvents"] if e["ph"] == "B"}
    for required in (
        "service.job.submit",
        "service.job.run",
        "service.job.load",
        "worker.chunk",
    ):
        assert required in names, f"span {required!r} missing from stitch"

    trace_ids = {
        json.loads(line)["trace_id"]
        for path in data_dir.rglob("trace*.jsonl")
        for line in path.read_text().splitlines()
        if line.strip()
    }
    assert trace_ids == {caller.trace_id}, (
        f"expected one propagated trace id, saw {trace_ids}"
    )
    print(
        f"stitched {len(chrome['traceEvents'])} event(s) across "
        f"{len(processes)} process(es) on one trace id",
        flush=True,
    )
    print("obs smoke passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
