"""Machine-readable registry of the engine's counter, metric, and span
namespace.

Every dotted counter name (``frequency.table_scans``, ``cache.hits``,
``fault.crashes``), histogram/timer metric name (``latency.scan_seconds``,
``worker.rss_bytes``), and trace-span name (``scan``, ``parallel.batch``)
the engine emits is declared here — either directly, or by derivation from
:data:`repro.core.stats._COUNTER_KEYS`, which remains the single source of
truth for the counters the ``BENCH_*.json`` export reports.

The registry exists so the namespace is *checkable*: the RA002 rule of
:mod:`repro.analysis` resolves every ``counters.incr("...")`` /
``metrics.observe("...")`` / ``obs.span("...")`` literal in the source
tree against it, turning a typo'd name — which today would silently create
a new instrument that no report ever reads — into a lint-time failure.
Adding a genuinely new counter or metric therefore means declaring it (in
``_COUNTER_KEYS`` or in the sets below) in the same change that first
records it.

Dump the registry as JSON for external tooling::

    python -m repro.obs.registry
"""

from __future__ import annotations

from dataclasses import dataclass

#: Counters recorded outside the ``SearchStats`` attribute views: the
#: parallel high-water mark, the frequency-set size high-water mark, the
#: cache's lifetime totals (kept on the cache object itself, not in a
#: run's stats — see :class:`repro.core.fscache.FrequencySetCache`), and
#: the supervised evaluator's fault and retry counts (read by name).
EXTRA_COUNTERS = frozenset(
    {
        "parallel.workers",
        "frequency.peak_rows",
        "cache.ancestor_hits",
        "cache.insertions",
        "fault.crashes",
        "fault.timeouts",
        "fault.poisoned",
        "fault.pool_rebuilds",
        "fault.demotions",
        "fault.memory_pressure",
        "fault.errors",
        "retry.attempts",
        "retry.chunks",
        "retry.serial_fallbacks",
        "retry.backoff_seconds",
    }
)

#: Counters recorded by the anonymization service (:mod:`repro.service`):
#: job lifecycle totals, admission-control and watchdog activity, and the
#: crash-recovery bookkeeping the chaos suite asserts over.
SERVICE_COUNTERS = frozenset(
    {
        "service.jobs_submitted",
        "service.jobs_succeeded",
        "service.jobs_failed",
        "service.jobs_cancelled",
        "service.jobs_resumed",
        "service.jobs_resumed_succeeded",
        "service.jobs_recovered",
        "service.jobs_drained",
        "service.retries",
        "service.watchdog_kills",
        "service.deadline_kills",
        "service.scheduler_errors",
        "service.wal_corrupt_lines",
        "service.shm_segments_swept",
        "service.requests",
        "service.request_errors",
        # live-telemetry pipeline (repro.obs.telemetry sampling inside the
        # job manager) and its SLO state-transition bookkeeping
        "telemetry.samples",
        "slo.breaches",
        "slo.recoveries",
    }
)

#: Open-ended counter families: any name extending one of these prefixes
#: is declared.  Each carries a generator whose suffix is data-dependent
#: (a subset size, an injected-fault kind).
COUNTER_PREFIXES = (
    "nodes.checked_by_size.",
    "fault.injected.",
    # service admission rejections and injected job-level faults, by kind
    "service.rejected.",
    "service.injected.",
    # SLO breach transitions, by breached objective name
    "slo.breach.",
)

#: Every histogram/timer instrument the engine records, by family:
#:
#: ``latency.*`` — wall-clock operation timings (parent-process surfaces);
#: ``worker.*``  — per-chunk telemetry shipped back from pool workers
#:                 (absent in serial runs by construction);
#: ``dist.*``    — data-valued distributions whose merged histograms are
#:                 bit-identical across serial/thread/process execution.
METRIC_NAMES = frozenset(
    {
        # operation latency (FrequencyEvaluator + relational + search loops)
        "latency.scan_seconds",
        "latency.rollup_seconds",
        "latency.project_seconds",
        "latency.groupby_seconds",
        "latency.join_seconds",
        "latency.star_generalize_seconds",
        "latency.cache_lookup_seconds",
        "latency.level_seconds",
        "latency.probe_seconds",
        # parent-side dispatch/retry latency (supervised batch evaluator)
        "latency.chunk_dispatch_seconds",
        "latency.chunk_retry_wait_seconds",
        # worker-shipped telemetry (pool workers → chunk-result channel)
        "worker.queue_wait_seconds",
        "worker.chunk_seconds",
        "worker.chunk_jobs",
        "worker.rss_bytes",
        # shard-mode telemetry (repro.shard): ranged partial-scan timings
        # and the per-range row widths the planner chose
        "shard.range_seconds",
        "shard.rows_per_range",
        # incremental-maintenance telemetry (repro.incremental): delta-only
        # scan and base-merge timings — wall clock stays out of the
        # incremental.* counters so run equality remains exact
        "latency.delta_scan_seconds",
        "latency.delta_merge_seconds",
        # deterministic data distributions
        "dist.frequency_set_rows",
        "dist.rollup_source_rows",
        # anonymization-service job latency (queue wait, execution, and
        # end-to-end submission→terminal), recorded by the job manager
        "latency.job_queue_seconds",
        "latency.job_run_seconds",
        "latency.job_total_seconds",
        # telemetry-sampler self-observation: how far behind its schedule
        # each sample fired (scheduling drift, not collection cost)
        "telemetry.sample_lag_seconds",
    }
)

#: Every span name the engine opens (see the ``obs.span(...)`` call sites).
SPAN_NAMES = frozenset(
    {
        "scan",
        "rollup",
        "project",
        "groupby",
        "join",
        "star.generalize",
        "parallel.batch",
        "bottomup.level",
        "binary_search.probe",
        "datafly.step",
        "incognito.resume",
        "incognito.iteration",
        "incremental.version",
        "incognito.graph_generation",
        "superroots.prepare",
        "cube.build",
        "bench.run",
        "service.job.run",
        "service.job.load",
        "service.job.submit",
        "service.job.launch",
        "worker.chunk",
    }
)


@dataclass(frozen=True)
class ObsRegistry:
    """The declared counter/metric/span namespace, as one immutable value."""

    counters: frozenset[str]
    counter_prefixes: tuple[str, ...]
    spans: frozenset[str]
    metrics: frozenset[str] = frozenset()

    def allows_counter(self, name: str) -> bool:
        """Whether an exact counter name is declared."""
        return name in self.counters or any(
            name.startswith(prefix) for prefix in self.counter_prefixes
        )

    def allows_counter_prefix(self, prefix: str) -> bool:
        """Whether a *partial* name (an f-string's constant head) is safe.

        True when every name the dynamic tail could generate is covered by
        a declared prefix — i.e. the head itself extends (or equals) a
        registered prefix.
        """
        return any(
            prefix.startswith(registered)
            for registered in self.counter_prefixes
        )

    def allows_span(self, name: str) -> bool:
        return name in self.spans

    def allows_metric(self, name: str) -> bool:
        """Whether an exact histogram/timer instrument name is declared."""
        return name in self.metrics

    def as_document(self) -> dict:
        """JSON-ready rendering (stable ordering for diffing)."""
        return {
            "counters": sorted(self.counters),
            "counter_prefixes": list(self.counter_prefixes),
            "metrics": sorted(self.metrics),
            "spans": sorted(self.spans),
        }


def default_registry() -> ObsRegistry:
    """The engine's registry: ``SearchStats`` keys plus the declared extras.

    Imports :mod:`repro.core.stats` lazily — ``repro.core`` depends on
    ``repro.obs``, so a module-level import here would be circular.
    """
    from repro.core.stats import _COUNTER_KEYS

    return ObsRegistry(
        counters=frozenset(_COUNTER_KEYS.values())
        | EXTRA_COUNTERS
        | SERVICE_COUNTERS,
        counter_prefixes=COUNTER_PREFIXES,
        spans=SPAN_NAMES,
        metrics=METRIC_NAMES,
    )


def main() -> int:
    import json

    print(json.dumps(default_registry().as_document(), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
