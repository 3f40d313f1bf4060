"""Service-layer observability: trace propagation, telemetry routes, SLOs.

Covers the surfaces the obs layer exposes *through* the service stack:

* ``traceparent`` flows client → server → record and is persisted, so
  every attempt of a job (including retries after a restart) stays on
  the trace minted at submission.
* ``GET /metrics?format=prometheus`` serves a text exposition that the
  strict parser accepts; ``GET /metrics/history`` serves the sampler's
  delta time series.
* A breached SLO degrades ``/healthz`` to 503 naming the breach, and
  the server recovers once the window slides past it.
* ``runner.log`` is structured JSON whose lines correlate with the
  trace (trace_id / span_id / job_id on every event).
* ``repro status`` renders the one-screen view from live documents.
"""

from __future__ import annotations

import json
import signal
import sys

import pytest

from repro.obs.context import TraceContext
from repro.obs.telemetry import SloPolicy, parse_exposition
from repro.service import runner
from repro.service.jobs import JobRecord, JobSpec
from repro.service.manager import JobManager
from repro.service.status import render_status, resolve_server_info
from tests.service.conftest import job_payload, write_dataset_csv
from tests.service.test_server import LiveServer


@pytest.fixture
def quiet_manager(tmp_path):
    """A manager with no scheduler thread (nothing ever launches)."""
    manager = JobManager(
        tmp_path / "svc", max_queue=4, tenant_budget=4, max_running=1
    )
    yield manager
    manager.store.close()


class TestTraceparentPropagation:
    def test_submit_continues_callers_trace(self, quiet_manager, tmp_path):
        caller = TraceContext.root().child_of(0x1234)
        spec = JobSpec.from_json(job_payload(write_dataset_csv(tmp_path)))
        record = quiet_manager.submit(spec, caller.to_traceparent())
        persisted = TraceContext.from_traceparent(record.traceparent)
        assert persisted is not None
        # same trace as the caller, but the *submit span's* position —
        # the job's attempts parent under the server, not the client.
        assert persisted.trace_id == caller.trace_id
        assert persisted.span_id != caller.span_id

    def test_submit_without_context_roots_a_fresh_trace(
        self, quiet_manager, tmp_path
    ):
        spec = JobSpec.from_json(job_payload(write_dataset_csv(tmp_path)))
        record = quiet_manager.submit(spec)
        context = TraceContext.from_traceparent(record.traceparent)
        assert context is not None and context.span_id is not None

    def test_submit_span_lands_on_disk_promptly(self, quiet_manager, tmp_path):
        """The sink buffers; submit must flush so a live stitch sees it."""
        spec = JobSpec.from_json(job_payload(write_dataset_csv(tmp_path)))
        record = quiet_manager.submit(spec, None)
        lines = (
            (quiet_manager.data_dir / "trace.jsonl").read_text().splitlines()
        )
        names = {json.loads(line)["name"] for line in lines}
        assert "service.job.submit" in names
        expected = TraceContext.from_traceparent(record.traceparent)
        ids = {json.loads(line)["trace_id"] for line in lines}
        assert expected.trace_id in ids

    def test_traceparent_survives_record_round_trip(self, tmp_path):
        spec = JobSpec.from_json(job_payload(write_dataset_csv(tmp_path)))
        wire = TraceContext.root().child_of(99).to_traceparent()
        record = JobRecord(
            id="j1", seq=1, spec=spec, state="queued", traceparent=wire
        )
        assert JobRecord.from_json(record.to_json()).traceparent == wire

    def test_http_header_reaches_the_record(self, quiet_manager, tmp_path):
        caller = TraceContext.root().child_of(0xBEEF)
        payload = job_payload(write_dataset_csv(tmp_path))
        with LiveServer(quiet_manager) as live:
            status, accepted = live.client.submit(
                payload, traceparent=caller.to_traceparent()
            )
            assert status == 202
        record = quiet_manager.get(accepted["id"])
        persisted = TraceContext.from_traceparent(record.traceparent)
        assert persisted.trace_id == caller.trace_id


class TestTelemetryRoutes:
    def test_prometheus_exposition_passes_strict_parser(self, quiet_manager):
        with LiveServer(quiet_manager) as live:
            live.client.healthz()  # guarantee at least one request counted
            families = parse_exposition(live.client.metrics_prometheus())
        requests = families["repro_service_requests_total"]
        assert requests["type"] == "counter"
        assert requests["samples"][0][2] >= 1
        assert families["repro_queue_depth"]["type"] == "gauge"
        assert families["repro_max_running"]["samples"][0][2] == 1.0

    def test_prometheus_scrape_does_not_pollute_history(self, quiet_manager):
        with LiveServer(quiet_manager) as live:
            before = len(quiet_manager.history_document()["samples"])
            live.client.metrics_prometheus()
            after = len(quiet_manager.history_document()["samples"])
        assert after == before

    def test_history_serves_the_sampled_ring(self, quiet_manager):
        quiet_manager.sampler.sample_now()
        quiet_manager.counters.incr("service.jobs_submitted")
        quiet_manager.sampler.sample_now()
        with LiveServer(quiet_manager) as live:
            history = live.client.metrics_history()
        samples = history["samples"]
        assert len(samples) == 2
        latest = samples[-1]
        assert {"ts", "counters", "deltas", "gauges"} <= set(latest)
        assert latest["deltas"]["service.jobs_submitted"] == 1
        assert "queue_depth" in latest["gauges"]


class TestSloDegradesHealth:
    @pytest.fixture
    def slo_manager(self, tmp_path):
        manager = JobManager(
            tmp_path / "svc",
            max_queue=4,
            tenant_budget=4,
            max_running=1,
            slo_policy=SloPolicy(p99_latency_seconds=0.05, window_samples=2),
        )
        yield manager
        manager.store.close()

    def test_breach_flips_healthz_to_503_then_recovers(self, slo_manager):
        with LiveServer(slo_manager) as live:
            slo_manager.sampler.sample_now()
            assert live.client.healthz()["status"] == "ok"

            # one pathologically slow job enters the window
            slo_manager.metrics.observe("latency.job_total_seconds", 9.0)
            slo_manager.sampler.sample_now()
            status, health = live.client.request("GET", "/healthz")
            assert status == 503
            assert health["status"] == "degraded"
            breached = {entry["name"] for entry in health["slo"]["breached"]}
            assert breached == {"p99_latency"}
            detail = health["slo"]["breached"][0]["detail"]
            assert "exceeds" in detail
            assert slo_manager.counters.get("slo.breaches") == 1
            assert (
                slo_manager.counters.get("slo.breach.p99_latency") == 1
            )

            # two clean samples slide the window past the slow job
            slo_manager.sampler.sample_now()
            slo_manager.sampler.sample_now()
            status, health = live.client.request("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert slo_manager.counters.get("slo.recoveries") == 1

    def test_transition_edges_fire_once(self, slo_manager):
        slo_manager.sampler.sample_now()
        slo_manager.metrics.observe("latency.job_total_seconds", 9.0)
        slo_manager.sampler.sample_now()
        slo_manager.metrics.observe("latency.job_total_seconds", 9.0)
        slo_manager.sampler.sample_now()  # still breached: no second count
        assert slo_manager.counters.get("slo.breaches") == 1


class TestStructuredRunnerLog:
    def _run_in_process(self, tmp_path, payload, traceparent):
        """Drive one attempt in-process; restore the globals the child
        target rightfully clobbers (streams, SIGTERM, trace env)."""
        import os

        from repro import obs

        # As under a manager, so the dataset store lands in tmp_path.
        job_dir = tmp_path / "jobs" / "job"
        job_dir.mkdir(parents=True)
        saved_streams = sys.stdout, sys.stderr
        saved_handler = signal.getsignal(signal.SIGTERM)
        try:
            runner.run_job_child(
                payload, str(job_dir), False, None, traceparent
            )
        finally:
            sys.stdout, sys.stderr = saved_streams
            signal.signal(signal.SIGTERM, saved_handler)
            os.environ.pop(obs.TRACE_DIR_ENV, None)
            os.environ.pop(obs.TRACEPARENT_ENV, None)
        return job_dir

    def test_log_lines_correlate_with_the_trace(self, tmp_path):
        wire = TraceContext.root().child_of(0x51).to_traceparent()
        payload = job_payload(write_dataset_csv(tmp_path))
        job_dir = self._run_in_process(tmp_path, payload, wire)

        result = json.loads((job_dir / runner.RESULT_FILE).read_text())
        assert result["status"] == "succeeded"

        events = [
            json.loads(line)
            for line in (job_dir / runner.LOG_FILE).read_text().splitlines()
        ]
        assert [event["event"] for event in events] == [
            "attempt_start",
            "attempt_finished",
        ]
        trace_id = TraceContext.from_traceparent(wire).trace_id
        for event in events:
            assert event["trace_id"] == trace_id
            assert event["job_id"] == "job"
            assert event["pid"] > 0
            assert event["span_id"]  # bound once the run span opened

        spans = [
            json.loads(line)
            for line in (job_dir / runner.TRACE_FILE).read_text().splitlines()
        ]
        run = next(s for s in spans if s["name"] == "service.job.run")
        assert run["trace_id"] == trace_id
        assert run["span_id"] == events[0]["span_id"]
        # The dataset load is its own layer inside the attempt.
        load = next(s for s in spans if s["name"] == "service.job.load")
        assert load["parent_id"] == run["span_id"]
        assert load["duration_seconds"] <= run["duration_seconds"]
        assert load["attrs"]["store"] == "miss"
        assert (tmp_path / runner.DATASET_DIR).is_dir()


class TestStatusRendering:
    def test_renders_breach_tenants_and_latency(self):
        health = {
            "status": "degraded",
            "running": 1,
            "max_running": 2,
            "queue_depth": 3,
            "jobs": {"queued": 3, "running": 1, "succeeded": 7},
            "tenants": {"acme": 2},
            "tenant_budget": 4,
            "slo": {
                "ok": False,
                "samples": 5,
                "policy": {"p99_latency_seconds": 0.5, "window_samples": 12},
                "breached": [
                    {
                        "name": "p99_latency",
                        "value": 2.0,
                        "threshold": 0.5,
                        "detail": "windowed p99 job latency 2.0s exceeds 0.5s",
                    }
                ],
            },
        }
        jobs = [
            {
                "id": "j1",
                "state": "running",
                "tenant": "acme",
                "algorithm": "incognito",
                "k": 2,
                "attempt": 2,
                "resumed": True,
            },
            {"id": "j0", "state": "succeeded", "tenant": "acme"},
        ]
        metrics = {
            "metrics": {
                "latency.job_total_seconds": {
                    "count": 7,
                    "sum": 3.5,
                    "p50": 0.4,
                    "p99": 2.0,
                    "max": 2.0,
                },
                "frequency.build_seconds": {"count": 9, "sum": 99.0},
            }
        }
        text = render_status(health, metrics, jobs)
        assert "server: DEGRADED" in text
        assert "BREACH  p99_latency: 2 > 0.5" in text
        assert "acme: 2/4 active" in text
        assert "j1  running" in text and "[R]" in text
        assert "j0" not in text.split("active jobs")[1].split("top latency")[0]
        assert "latency.job_total_seconds: n=7" in text
        # non-latency instruments stay out of the latency panel
        assert "frequency.build_seconds" not in text

    def test_live_render_and_info_resolution(self, quiet_manager):
        with LiveServer(quiet_manager) as live:
            info = resolve_server_info(quiet_manager.data_dir)
            assert json.loads(info.read_text())["port"] == live.server.port
            text = render_status(
                live.client.healthz(),
                live.client.metrics(),
                live.client.jobs(),
            )
        assert text.startswith("server: OK")
        assert "none recorded yet" in text

    def test_missing_info_fails_loudly(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="is the server running"):
            resolve_server_info(tmp_path)
