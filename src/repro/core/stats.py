"""Instrumentation shared by every search algorithm.

The paper's evaluation compares algorithms on elapsed time, but explains the
differences through two structural counters: how many lattice nodes each
algorithm evaluates (the Section 4.2.1 in-text table) and how often each
touches the base data versus rolling up an existing frequency set.  All
algorithms in this reproduction record both, through one shared
:class:`SearchStats` object, so the numbers are directly comparable.

Since the observability layer (:mod:`repro.obs`) landed, the numbers
actually live in a hierarchical :class:`~repro.obs.counters.CounterSet`;
``SearchStats`` is a thin, backward-compatible attribute view over it.
``stats.table_scans += 1`` still works everywhere, but the same data is
available as dotted counters (``stats.counters.total("frequency")``) and
feeds the ``BENCH_*.json`` export without any copying.
"""

from __future__ import annotations

from repro.obs.counters import CounterSet
from repro.obs.metrics import MetricSet

#: SearchStats attribute → counter name, for the summed counters.
_COUNTER_KEYS = {
    "table_scans": "frequency.table_scans",
    "rollups": "frequency.rollups",
    "projections": "frequency.projections",
    "nodes_checked": "nodes.checked",
    "nodes_marked": "nodes.marked",
    "nodes_generated": "nodes.generated",
    "frequency_set_rows": "frequency.rows",
    "rollup_source_rows": "frequency.rollup_source_rows",
    "cube_build_scans": "cube.build_scans",
    "cube_build_seconds": "cube.build_seconds",
    "elapsed_seconds": "time.elapsed_seconds",
    "cache_hits": "cache.hits",
    "cache_misses": "cache.misses",
    "cache_evictions": "cache.evictions",
    "cache_rollup_saves": "cache.rollup_saves",
    "parallel_tasks": "parallel.tasks",
    "parallel_merge_seconds": "parallel.merge_seconds",
    "shard_range_scans": "shard.range_scans",
    "shard_rows_scanned": "shard.rows_scanned",
    "shard_merges": "shard.merges",
    "shard_merge_seconds": "shard.merge_seconds",
    "incremental_base_hits": "incremental.base_hits",
    "incremental_base_misses": "incremental.base_misses",
    "incremental_delta_scans": "incremental.delta_scans",
    "incremental_delta_rows_scanned": "incremental.delta_rows_scanned",
    "incremental_base_rows_reused": "incremental.base_rows_reused",
    "incremental_captures": "incremental.captures",
    "incremental_evictions": "incremental.evictions",
}

#: Attributes exposed as floats; everything else is coerced to int.
_FLOAT_FIELDS = frozenset(
    {
        "cube_build_seconds",
        "elapsed_seconds",
        "parallel_merge_seconds",
        "shard_merge_seconds",
    }
)

#: Counter-name prefix of the per-subset-size node-check histogram.
_CHECKS_PREFIX = "nodes.checked_by_size."

#: High-water mark: the largest single frequency set materialised.
_PEAK_KEY = "frequency.peak_rows"


def _counter_view(field: str, key: str) -> property:
    cast = float if field in _FLOAT_FIELDS else int

    def fget(self: "SearchStats"):
        return cast(self.counters.get(key, 0))

    def fset(self: "SearchStats", value) -> None:
        self.counters.set(key, cast(value))

    return property(fget, fset, doc=f"View of counter {key!r}.")


class SearchStats:
    """Counters filled in by a single algorithm run.

    Semantics of the individual fields (unchanged from the original
    dataclass):

    * ``table_scans`` — frequency sets computed by scanning the base table
    * ``rollups`` — frequency sets computed by rolling up another set
    * ``projections`` — frequency sets computed by projecting attributes out
    * ``nodes_checked`` — nodes decided by evaluating a frequency set (the
      paper's "number of nodes searched")
    * ``nodes_marked`` — nodes skipped via the generalization property
    * ``nodes_generated`` — candidate nodes generated across all iterations
    * ``frequency_set_rows`` — total rows across all computed frequency sets
    * ``rollup_source_rows`` — total rows of the source sets fed to rollups
    * ``cube_build_scans`` / ``cube_build_seconds`` — Cube pre-computation
    * ``elapsed_seconds`` — whole-run wall clock (filled by the caller)

    Alongside the counters, each run carries a
    :class:`~repro.obs.metrics.MetricSet` of distribution instruments
    (``latency.*`` timings, ``dist.*`` data distributions, ``worker.*``
    pool telemetry).  Metrics ride the same merge path as counters —
    per-chunk deltas from pool workers fold in with
    ``stats += delta`` — but equality (:meth:`__eq__`) intentionally
    compares counters only: wall-clock histograms differ between otherwise
    identical runs, and the differential suite compares the deterministic
    ``dist.*`` family explicitly instead.
    """

    __slots__ = ("counters", "metrics")

    def __init__(
        self,
        counters: CounterSet | None = None,
        metrics: MetricSet | None = None,
        **initial,
    ) -> None:
        self.counters = counters if counters is not None else CounterSet()
        self.metrics = metrics if metrics is not None else MetricSet()
        for field, value in initial.items():
            if field == "checks_by_subset_size":
                for size, count in value.items():
                    self.counters.set(f"{_CHECKS_PREFIX}{int(size)}", count)
                continue
            if field not in _COUNTER_KEYS and field != "peak_frequency_set_rows":
                raise TypeError(f"SearchStats has no field {field!r}")
            setattr(self, field, value)

    # Summed counters, exposed as plain read/write attributes.
    table_scans = _counter_view("table_scans", _COUNTER_KEYS["table_scans"])
    rollups = _counter_view("rollups", _COUNTER_KEYS["rollups"])
    projections = _counter_view("projections", _COUNTER_KEYS["projections"])
    nodes_checked = _counter_view("nodes_checked", _COUNTER_KEYS["nodes_checked"])
    nodes_marked = _counter_view("nodes_marked", _COUNTER_KEYS["nodes_marked"])
    nodes_generated = _counter_view(
        "nodes_generated", _COUNTER_KEYS["nodes_generated"]
    )
    frequency_set_rows = _counter_view(
        "frequency_set_rows", _COUNTER_KEYS["frequency_set_rows"]
    )
    rollup_source_rows = _counter_view(
        "rollup_source_rows", _COUNTER_KEYS["rollup_source_rows"]
    )
    cube_build_scans = _counter_view(
        "cube_build_scans", _COUNTER_KEYS["cube_build_scans"]
    )
    cube_build_seconds = _counter_view(
        "cube_build_seconds", _COUNTER_KEYS["cube_build_seconds"]
    )
    elapsed_seconds = _counter_view(
        "elapsed_seconds", _COUNTER_KEYS["elapsed_seconds"]
    )
    cache_hits = _counter_view("cache_hits", _COUNTER_KEYS["cache_hits"])
    cache_misses = _counter_view("cache_misses", _COUNTER_KEYS["cache_misses"])
    cache_evictions = _counter_view(
        "cache_evictions", _COUNTER_KEYS["cache_evictions"]
    )
    cache_rollup_saves = _counter_view(
        "cache_rollup_saves", _COUNTER_KEYS["cache_rollup_saves"]
    )
    parallel_tasks = _counter_view(
        "parallel_tasks", _COUNTER_KEYS["parallel_tasks"]
    )
    parallel_merge_seconds = _counter_view(
        "parallel_merge_seconds", _COUNTER_KEYS["parallel_merge_seconds"]
    )
    # Split-scan accounting (see repro.shard): the ranged partial scans of
    # scan plans with more than one range, and the exact merges that fold
    # them.  Kept in their own namespace so the frequency.* counters stay
    # bit-identical to a serial run — a split scan still accounts exactly
    # one frequency.table_scans.
    shard_range_scans = _counter_view(
        "shard_range_scans", _COUNTER_KEYS["shard_range_scans"]
    )
    shard_rows_scanned = _counter_view(
        "shard_rows_scanned", _COUNTER_KEYS["shard_rows_scanned"]
    )
    shard_merges = _counter_view("shard_merges", _COUNTER_KEYS["shard_merges"])
    shard_merge_seconds = _counter_view(
        "shard_merge_seconds", _COUNTER_KEYS["shard_merge_seconds"]
    )
    # Incremental-maintenance accounting (see repro.incremental): delta-only
    # scans over appended rows and the base sets they were merged into.
    # Strictly integer by design — SearchStats equality compares *all*
    # counters, and the append-differential suite asserts incremental runs
    # bit-identical to from-scratch runs; wall-clock lives in the
    # latency.delta_* metric family instead.
    incremental_base_hits = _counter_view(
        "incremental_base_hits", _COUNTER_KEYS["incremental_base_hits"]
    )
    incremental_base_misses = _counter_view(
        "incremental_base_misses", _COUNTER_KEYS["incremental_base_misses"]
    )
    incremental_delta_scans = _counter_view(
        "incremental_delta_scans", _COUNTER_KEYS["incremental_delta_scans"]
    )
    incremental_delta_rows_scanned = _counter_view(
        "incremental_delta_rows_scanned",
        _COUNTER_KEYS["incremental_delta_rows_scanned"],
    )
    incremental_base_rows_reused = _counter_view(
        "incremental_base_rows_reused",
        _COUNTER_KEYS["incremental_base_rows_reused"],
    )
    incremental_captures = _counter_view(
        "incremental_captures", _COUNTER_KEYS["incremental_captures"]
    )
    incremental_evictions = _counter_view(
        "incremental_evictions", _COUNTER_KEYS["incremental_evictions"]
    )

    @property
    def parallel_workers(self) -> int:
        """Largest worker pool used by any parallel batch (high-water)."""
        return int(self.counters.get("parallel.workers", 0))

    @parallel_workers.setter
    def parallel_workers(self, value: int) -> None:
        self.counters.note_max("parallel.workers", int(value))

    @property
    def peak_frequency_set_rows(self) -> int:
        """Largest single frequency set materialised (not all sets alive)."""
        return int(self.counters.get(_PEAK_KEY, 0))

    @peak_frequency_set_rows.setter
    def peak_frequency_set_rows(self, value: int) -> None:
        self.counters.note_max(_PEAK_KEY, int(value))

    def note_frequency_set(self, num_groups: int) -> None:
        """Account one materialised frequency set of ``num_groups`` rows."""
        self.counters.incr(_COUNTER_KEYS["frequency_set_rows"], num_groups)
        self.counters.note_max(_PEAK_KEY, num_groups)
        # Data-valued distribution: integer observations, identical across
        # serial/thread/process execution of the same plan.
        self.metrics.observe("dist.frequency_set_rows", num_groups)

    @property
    def checks_by_subset_size(self) -> dict[int, int]:
        """Per-iteration node-check counts, keyed by subset size."""
        out: dict[int, int] = {}
        for name in self.counters:
            if name.startswith(_CHECKS_PREFIX):
                out[int(name[len(_CHECKS_PREFIX):])] = int(
                    self.counters.get(name)
                )
        return out

    @checks_by_subset_size.setter
    def checks_by_subset_size(self, mapping: dict[int, int]) -> None:
        for name in [n for n in self.counters if n.startswith(_CHECKS_PREFIX)]:
            self.counters.remove(name)
        for size, count in mapping.items():
            self.counters.set(f"{_CHECKS_PREFIX}{int(size)}", count)

    @property
    def frequency_evaluations(self) -> int:
        """Total frequency sets materialised, however computed."""
        return self.table_scans + self.rollups + self.projections

    def record_check(self, subset_size: int) -> None:
        """Count one node decision at the given attribute-subset size."""
        self.counters.incr(_COUNTER_KEYS["nodes_checked"])
        self.counters.incr(f"{_CHECKS_PREFIX}{subset_size}")

    def merge(self, other: "SearchStats") -> None:
        """Accumulate ``other`` into this object (used by multi-phase runs).

        Summed counters add; high-water marks (peak frequency-set rows)
        take the maximum of the two runs; metric histograms fold
        bucket-wise.  All three operations are associative and commutative,
        so per-shard deltas from parallel workers can be folded in any
        order without changing the totals.
        """
        self.counters.merge(other.counters)
        self.metrics.merge(other.metrics)

    def __iadd__(self, other: "SearchStats") -> "SearchStats":
        """``stats += delta`` — in-place :meth:`merge`, returning self."""
        if not isinstance(other, SearchStats):
            return NotImplemented
        self.merge(other)
        return self

    def as_dict(self) -> dict[str, float]:
        """Flat counter snapshot (the ``BENCH_*.json`` payload)."""
        return self.counters.as_dict()

    def summary(self) -> str:
        return (
            f"checked={self.nodes_checked} marked={self.nodes_marked} "
            f"scans={self.table_scans} rollups={self.rollups} "
            f"projections={self.projections} "
            f"generated={self.nodes_generated} "
            f"elapsed={self.elapsed_seconds:.3f}s"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchStats):
            return NotImplemented
        return self.counters == other.counters

    def __repr__(self) -> str:
        return f"SearchStats({self.summary()})"
