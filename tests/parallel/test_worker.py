"""Worker-side unit tests: RSS telemetry portability, scan jobs."""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from repro import obs
from repro.core.anonymity import FrequencyEvaluator, compute_frequency_set
from repro.parallel import worker
from repro.shard import SharedTableStore
from tests.conftest import tiny_numeric_problem


def fake_resource(ru_maxrss):
    """A stand-in ``resource`` module reporting a fixed ru_maxrss."""
    return types.SimpleNamespace(
        RUSAGE_SELF=0,
        getrusage=lambda who: types.SimpleNamespace(ru_maxrss=ru_maxrss),
    )


class TestPeakRssBytes:
    """ru_maxrss units are platform-specific: KiB on Linux, bytes on
    macOS, and the resource module is absent on Windows."""

    def test_linux_scales_kilobytes_to_bytes(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "resource", fake_resource(2_048))
        monkeypatch.setattr(sys, "platform", "linux")
        assert worker._peak_rss_bytes() == 2_048 * 1024

    def test_darwin_is_already_bytes(self, monkeypatch):
        # Regression: a blanket *1024 inflated macOS readings 1024x.
        monkeypatch.setitem(sys.modules, "resource", fake_resource(2_048))
        monkeypatch.setattr(sys, "platform", "darwin")
        assert worker._peak_rss_bytes() == 2_048

    def test_missing_resource_module_skips(self, monkeypatch):
        # Windows: `import resource` raises; no observation, no crash.
        monkeypatch.setitem(sys.modules, "resource", None)
        assert worker._peak_rss_bytes() is None

    def test_real_platform_reports_positive(self):
        value = worker._peak_rss_bytes()
        assert value is not None and value > 0

    def test_telemetry_skips_when_unavailable(self, monkeypatch):
        from repro.obs.metrics import MetricSet

        monkeypatch.setitem(sys.modules, "resource", None)
        metrics = MetricSet()
        worker._note_worker_telemetry(
            metrics, num_jobs=1, chunk_seconds=0.1, submitted_at=None
        )
        assert metrics.as_dict().get("worker.rss_bytes", {"count": 0})[
            "count"
        ] == 0


@pytest.fixture
def installed_problem():
    """Attach a shared problem in this process's worker slot, restoring after."""
    previous_problem = worker._PROBLEM
    previous_tracer = obs.get_tracer()
    problem = tiny_numeric_problem()
    store = SharedTableStore.from_problem(problem)
    try:
        worker.init_worker_shared(store.handle)
        yield problem
    finally:
        worker._PROBLEM = previous_problem
        obs.set_tracer(previous_tracer)
        store.close()


class TestRunChunkScanPlan:
    def test_scan_job_loops_over_every_range(self, installed_problem):
        node = installed_problem.bottom_node()
        plan = FrequencyEvaluator(installed_problem, shard_rows=3).plan_scan()
        assert len(plan.ranges) > 1
        out, counters, _ = worker.run_chunk([(node, "scan", plan)])
        (key_codes, counts), = out
        direct = compute_frequency_set(installed_problem, node)
        np.testing.assert_array_equal(key_codes, direct.key_codes)
        np.testing.assert_array_equal(counts, direct.counts)
        # The ranges are telemetry; the plan is one table scan.
        assert counters.get("shard.range_scans", 0) == len(plan.ranges)
        assert counters.get("shard.rows_scanned", 0) == installed_problem.num_rows
        assert counters.get("frequency.table_scans", 0) == 1

    def test_scan_job_without_payload_is_an_error(self, installed_problem):
        node = installed_problem.bottom_node()
        with pytest.raises(ValueError, match="'scan' job has no payload"):
            worker.run_chunk([(node, "scan", None)])
