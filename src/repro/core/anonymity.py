"""Frequency sets and k-anonymity checks (paper Sections 1.1 and 3).

A :class:`FrequencySet` is the paper's central data structure: the result of
``SELECT COUNT(*) ... GROUP BY`` over the table generalized to some lattice
node.  It supports the two properties the algorithms exploit:

* **Rollup property** — :meth:`FrequencySet.rollup` re-aggregates an
  existing frequency set up the hierarchy of one or more attributes without
  touching the base table.
* **Subset property** (data-cube direction) — :meth:`FrequencySet.project`
  drops attributes and re-aggregates, producing the frequency set of a
  quasi-identifier subset (used by Cube Incognito's pre-computation).

:class:`FrequencyEvaluator` wraps a :class:`~repro.core.problem.PreparedTable`
with a :class:`~repro.core.stats.SearchStats`, so every algorithm draws its
frequency sets through one instrumented chokepoint.
"""

from __future__ import annotations

import time
from typing import Any, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.core.fscache import current_delta_context
from repro.core.problem import PreparedTable
from repro.core.stats import SearchStats
from repro.lattice.node import LatticeNode
from repro.relational.groupby import group_by_codes
from repro.relational.table import Table


class FrequencySet:
    """The frequency set of a table with respect to a lattice node.

    Attributes
    ----------
    node:
        The generalization this frequency set was computed at.
    key_codes:
        ``(num_groups, node.size)`` array; column j holds codes into
        attribute j's level-``node.levels[j]`` dictionary.
    counts:
        Group sizes, int64.
    problem:
        The owning problem (supplies dictionaries for decoding).
    """

    __slots__ = ("node", "key_codes", "counts", "problem")

    def __init__(
        self,
        node: LatticeNode,
        key_codes: np.ndarray,
        counts: np.ndarray,
        problem: PreparedTable,
    ) -> None:
        self.node = node
        self.key_codes = key_codes
        self.counts = counts
        self.problem = problem

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return int(self.counts.shape[0])

    def min_count(self) -> int:
        return int(self.counts.min()) if self.counts.size else 0

    def total(self) -> int:
        return int(self.counts.sum())

    def rows_below(self, k: int) -> int:
        """Total tuples living in groups smaller than ``k`` (outliers)."""
        if not self.counts.size:
            return 0
        small = self.counts < k
        return int(self.counts[small].sum())

    def is_k_anonymous(self, k: int, max_suppression: int = 0) -> bool:
        """The k-anonymity property, with the optional suppression threshold.

        Without suppression this is simply ``min count >= k``.  With a
        threshold, a table counts as k-anonymous if removing all tuples in
        undersized groups stays within ``max_suppression`` rows (the paper's
        "up to a certain number of records may be completely excluded").

        An *empty* relation is k-anonymous for every k (vacuous truth: the
        definition quantifies over the rows, and there are none).  This also
        covers the suppression case where the remainder after dropping all
        undersized groups is empty.  Without the explicit check,
        ``min_count() == 0`` on an empty set would wrongly fail every k.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if self.num_groups == 0:
            return True
        if max_suppression == 0:
            return self.min_count() >= k
        return self.rows_below(k) <= max_suppression

    def group_values(self, group: int) -> tuple:
        """Decode group ``group``'s generalized value combination."""
        values = []
        for position, (attribute, level) in enumerate(self.node.items()):
            dictionary = self.problem.hierarchy(attribute).level_values(level)
            values.append(dictionary[self.key_codes[group, position]])
        return tuple(values)

    def as_dict(self) -> dict[tuple, int]:
        return {
            self.group_values(g): int(self.counts[g])
            for g in range(self.num_groups)
        }

    def to_table(self, count_name: str = "count") -> Table:
        """The relational representation (F1 of the paper's rollup example)."""
        from repro.relational.column import CODE_DTYPE, Column
        from repro.relational.schema import Schema

        columns = []
        for position, (attribute, level) in enumerate(self.node.items()):
            dictionary = self.problem.hierarchy(attribute).level_values(level)
            columns.append(
                Column(self.key_codes[:, position].astype(CODE_DTYPE), dictionary)
            )
        columns.append(Column.from_values(int(c) for c in self.counts))
        schema = Schema.of(*self.node.attributes, count_name)
        return Table(schema, columns)

    # ------------------------------------------------------------------
    # derivation (the rollup and cube primitives)
    # ------------------------------------------------------------------
    def rollup(self, target: LatticeNode) -> "FrequencySet":
        """Re-aggregate up the hierarchies to ``target`` (rollup property).

        ``target`` must share this node's attribute set with every level
        greater than or equal to the current one.  Works for multi-level,
        multi-attribute jumps (used by super-roots).
        """
        self.node.distance_vector(target)  # validates comparability
        code_arrays = []
        radices = []
        lookups = []
        for position, attribute in enumerate(self.node.attributes):
            hierarchy = self.problem.hierarchy(attribute)
            from_level = self.node.levels[position]
            to_level = target.levels[position]
            code_arrays.append(self.key_codes[:, position])
            radices.append(hierarchy.cardinality(to_level))
            lookups.append(
                hierarchy.mapping_between(from_level, to_level)
                if to_level != from_level
                else None
            )
        key_codes, counts = group_by_codes(
            code_arrays, radices, lookups=lookups, weights=self.counts
        )
        return FrequencySet(target, key_codes, counts, self.problem)

    def project(self, attributes: Sequence[str]) -> "FrequencySet":
        """Drop attributes and re-aggregate (the data-cube/subset direction)."""
        attributes = tuple(attributes)
        if not attributes:
            raise ValueError("cannot project a frequency set to no attributes")
        positions = [self.node.attributes.index(name) for name in attributes]
        target = self.node.subset(attributes)
        code_arrays = [self.key_codes[:, position] for position in positions]
        radices = [
            self.problem.hierarchy(name).cardinality(target.levels[i])
            for i, name in enumerate(attributes)
        ]
        key_codes, counts = group_by_codes(code_arrays, radices, weights=self.counts)
        return FrequencySet(target, key_codes, counts, self.problem)


def compute_frequency_set(
    problem: PreparedTable, node: LatticeNode
) -> FrequencySet:
    """Frequency set of the base table at ``node`` — one full table scan."""
    return _scan_rows(problem, node, 0, problem.num_rows)


def compute_frequency_set_range(
    problem: PreparedTable, node: LatticeNode, start: int, stop: int
) -> FrequencySet:
    """*Partial* frequency set of rows ``[start, stop)`` at ``node``.

    One range of a scan plan (:class:`ScanPlan`): because COUNT is
    distributive, the partial sets of a row partition merge exactly to the
    whole-table scan (see :func:`repro.core.outofcore.merge_partials`).
    The returned set is labelled with ``node`` like a full scan — it is
    the caller's job to remember which row range it covers.
    """
    num_rows = problem.table.num_rows
    if not 0 <= start <= stop <= num_rows:
        raise ValueError(
            f"row range [{start}, {stop}) out of bounds for {num_rows} rows"
        )
    return _scan_rows(problem, node, start, stop)


def _scan_rows(
    problem: PreparedTable, node: LatticeNode, start: int, stop: int
) -> FrequencySet:
    """Group rows ``[start, stop)`` of the base table at ``node``.

    Each attribute is read from the problem's generalized column for its
    level (:meth:`PreparedTable.generalized_codes`) when there is one.
    Otherwise its base codes are read, through the level lookup inside the
    kernel's key build above level 0, which gives the same keys.
    """
    code_arrays = []
    radices = []
    lookups = []
    for attribute, level in node.items():
        hierarchy = problem.hierarchy(attribute)
        column = problem.generalized_codes(attribute, level)
        if column is None:
            column = problem.table.column(attribute).codes
            lookups.append(hierarchy.level_lookup(level) if level else None)
        else:
            lookups.append(None)
        code_arrays.append(column[start:stop])
        radices.append(hierarchy.cardinality(level))
    key_codes, counts = group_by_codes(code_arrays, radices, lookups=lookups)
    return FrequencySet(node, key_codes, counts, problem)


def check_k_anonymity(
    table: Table,
    quasi_identifier: Sequence[str],
    k: int,
    *,
    max_suppression: int = 0,
) -> bool:
    """Independent k-anonymity check on a plain table (no hierarchies).

    This is the paper's SQL definition evaluated directly —
    ``SELECT COUNT(*) GROUP BY quasi_identifier`` with every count >= k —
    used by tests and examples to validate algorithm outputs without
    trusting any algorithm machinery.
    """
    from repro.relational.groupby import group_by_count

    if table.num_rows == 0:
        # Same vacuous-truth semantics as FrequencySet.is_k_anonymous: an
        # empty relation satisfies k-anonymity for every k.
        return True
    result = group_by_count(table, list(quasi_identifier))
    if max_suppression == 0:
        return result.min_count() >= k
    small = result.counts < k
    return int(result.counts[small].sum()) <= max_suppression


class ScanPlan(NamedTuple):
    """One table scan: the row ranges still to scan, plus a remembered base.

    ``ranges`` are ``[start, stop)`` row ranges in row order that together
    cover every row the base does not.  ``base`` is an optional
    ``(key_codes, counts, covered_rows)`` triple: the node's exact
    frequency set over rows ``[0, covered_rows)``, remembered from an
    earlier dataset version (see :mod:`repro.incremental`).
    """

    ranges: tuple[tuple[int, int], ...]
    base: tuple[np.ndarray, np.ndarray, int] | None = None

    @property
    def start(self) -> int:
        """The first row to scan; the rows before it come from ``base``."""
        return 0 if self.base is None else self.base[2]


class FrequencyEvaluator:
    """Instrumented frequency-set factory shared by all algorithms.

    Every frequency set the engine materialises flows through exactly one
    of :meth:`scan`, :meth:`rollup`, or :meth:`project`, each of which

    * updates the run's :class:`SearchStats` counters (the legacy view —
      these remain the ground truth the bench figures report), and
    * opens a same-named :mod:`repro.obs` trace span, so an enabled tracer
      sees one ``scan`` / ``rollup`` / ``project`` span per frequency set,
      with the underlying ``groupby`` work nested inside.

    With a :class:`~repro.core.fscache.FrequencySetCache` attached, the
    higher-level :meth:`resolve_job` / :meth:`materialize` entry points
    substitute cached results for table work: an exact cache hit costs
    nothing (``cache.hits``), and a cached *ancestor* turns a would-be
    table scan into a rollup (``cache.rollup_saves``).  The raw
    :meth:`scan` / :meth:`rollup` primitives stay cache-oblivious so the
    substitution is visible in — never hidden from — the counters.
    """

    def __init__(
        self,
        problem: PreparedTable,
        stats: SearchStats | None = None,
        *,
        cache=None,
        shard_rows: int | None = None,
    ) -> None:
        self.problem = problem
        self.stats = stats if stats is not None else SearchStats()
        self.cache = cache
        #: Width of a scan plan's row ranges (None: one range per scan);
        #: an algorithm passes its ``ExecutionConfig.shard_rows``.
        self.shard_rows = shard_rows
        if cache is not None:
            cache.bind(problem)
        # Adopt the region-default delta context when it serves exactly
        # this dataset version (fingerprint equality covers QI-subset
        # views, which share table and compiled hierarchies).
        delta = current_delta_context()
        self._delta = (
            delta if delta is not None and delta.matches(problem) else None
        )

    def scan(self, node: LatticeNode, plan: ScanPlan | None = None) -> FrequencySet:
        """Compute from the base table (counted as one table scan).

        ``plan`` defaults to every row, split at :attr:`shard_rows` (see
        :meth:`plan_scan`).  A plan's ranges run in a loop that folds every
        :data:`~repro.core.outofcore.MERGE_FAN_IN` partial sets into one,
        so a plan of many small ranges holds at most that many partials at
        once (the out-of-core scan).  What is left merges with the base in
        one exact COUNT merge (:func:`~repro.core.outofcore.merge_partials`);
        one partial and no base is already the answer.  Because dictionary
        and level codes are prefix-stable under appends, a merged base is
        as exact as a rescan of its rows.

        The plan is accounted once, as one ``frequency.table_scans`` plus
        one frequency-set observation whatever its ranges, so those
        surfaces match a whole-table scan.  A base adds the
        ``incremental.*`` delta counters (rows scanned, rows reused) and
        the ``latency.delta_merge_seconds`` timing of its merge.
        """
        if plan is None:
            plan = self.plan_scan()
        ranges, base = plan
        split = len(ranges) > 1
        stats = self.stats
        with obs.span("scan") as sp:
            if split:
                partials = self._scan_ranges(node, ranges)
            else:
                metrics = stats.metrics
                timer = (
                    metrics.timer("latency.scan_seconds")
                    if base is None
                    else metrics.timer("latency.delta_scan_seconds")
                )
                with timer:
                    partial = compute_frequency_set_range(
                        self.problem, node, *ranges[0]
                    )
                partials = [(partial.key_codes, partial.counts)]
            if base is not None:
                partials = [base[:2], *partials]
            if len(partials) == 1:
                key_codes, counts = partials[0]
            elif base is None:
                key_codes, counts = self._merge(node, partials, split=split)
            else:
                with stats.metrics.timer("latency.delta_merge_seconds"):
                    key_codes, counts = self._merge(node, partials, split=split)
            result = FrequencySet(node, key_codes, counts, self.problem)
            if base is not None:
                stats.incremental_delta_scans += 1
                stats.incremental_delta_rows_scanned += (
                    self.problem.num_rows - plan.start
                )
                stats.incremental_base_rows_reused += plan.start
            stats.table_scans += 1
            stats.note_frequency_set(result.num_groups)
            if sp:
                sp.set(
                    node=str(node),
                    rows_scanned=self.problem.num_rows - plan.start,
                    groups=result.num_groups,
                )
                if split:
                    sp.set(ranges=len(ranges))
                if base is not None:
                    sp.set(rows_reused=plan.start)
        return result

    def plan_scan(
        self,
        base: tuple[np.ndarray, np.ndarray, int] | None = None,
    ) -> ScanPlan:
        """A plan over the rows ``base`` does not cover, split at :attr:`shard_rows`.

        No width, an empty table and an empty delta all give one range.
        """
        start = 0 if base is None else base[2]
        stop = self.problem.num_rows
        width = self.shard_rows
        if width is None or stop - start <= width:
            return ScanPlan(((start, stop),), base)
        lows = range(start, stop, width)
        return ScanPlan(tuple((low, min(low + width, stop)) for low in lows), base)

    def _scan_ranges(
        self, node: LatticeNode, ranges: Sequence[tuple[int, int]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Partials of ``ranges`` in order, folded every MERGE_FAN_IN."""
        from repro.core.outofcore import MERGE_FAN_IN

        partials: list[tuple[np.ndarray, np.ndarray]] = []
        for start, stop in ranges:
            partial = self._scan_range(node, start, stop)
            partials.append((partial.key_codes, partial.counts))
            if len(partials) >= MERGE_FAN_IN:
                partials = [self._merge(node, partials, split=True)]
        return partials

    def _scan_range(self, node: LatticeNode, start: int, stop: int) -> FrequencySet:
        with self.stats.metrics.timer("shard.range_seconds"):
            result = compute_frequency_set_range(self.problem, node, start, stop)
        self.stats.shard_range_scans += 1
        self.stats.shard_rows_scanned += stop - start
        self.stats.metrics.observe("shard.rows_per_range", stop - start)
        return result

    def _merge(
        self,
        node: LatticeNode,
        partials: Sequence[tuple[np.ndarray, np.ndarray]],
        *,
        split: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One exact COUNT merge; a split plan's merges count as ``shard.*``."""
        from repro.core.outofcore import merge_partials

        radices = [
            self.problem.hierarchy(attribute).cardinality(level)
            for attribute, level in node.items()
        ]
        started = time.perf_counter()
        merged = merge_partials(
            [keys for keys, _ in partials],
            [counts for _, counts in partials],
            radices,
        )
        if split:
            self.stats.shard_merges += 1
            self.stats.shard_merge_seconds += time.perf_counter() - started
        return merged

    def rollup(self, source: FrequencySet, target: LatticeNode) -> FrequencySet:
        """Compute by rollup from ``source`` (counted as a rollup)."""
        with obs.span("rollup") as sp:
            with self.stats.metrics.timer("latency.rollup_seconds"):
                result = source.rollup(target)
            if sp:
                sp.set(
                    source=str(source.node),
                    target=str(target),
                    source_rows=source.num_groups,
                    groups=result.num_groups,
                )
        self.stats.rollups += 1
        self.stats.note_frequency_set(result.num_groups)
        self.stats.rollup_source_rows += source.num_groups
        self.stats.metrics.observe("dist.rollup_source_rows", source.num_groups)
        return result

    def project(self, source: FrequencySet, attributes: Sequence[str]) -> FrequencySet:
        """Compute by projecting attributes out (counted as a projection)."""
        with obs.span("project") as sp:
            with self.stats.metrics.timer("latency.project_seconds"):
                result = source.project(attributes)
            if sp:
                sp.set(
                    source=str(source.node),
                    attributes=",".join(attributes),
                    source_rows=source.num_groups,
                    groups=result.num_groups,
                )
        self.stats.projections += 1
        self.stats.note_frequency_set(result.num_groups)
        return result

    def decide(
        self, node: LatticeNode, frequency_set: FrequencySet, k: int, max_suppression: int
    ) -> bool:
        """Check anonymity and record the node decision."""
        self.stats.record_check(node.size)
        return frequency_set.is_k_anonymous(k, max_suppression)

    # ------------------------------------------------------------------
    # cache-aware planning (used directly and by the parallel evaluator)
    # ------------------------------------------------------------------
    def resolve_job(
        self,
        node: LatticeNode,
        source: FrequencySet | None = None,
    ) -> tuple[str, Any]:
        """Plan how to obtain ``node``'s frequency set.

        Returns ``(kind, payload)`` where kind is ``"use"`` (payload *is*
        the set — zero cost), ``"rollup"`` (re-aggregate payload up to
        ``node``), or ``"scan"`` (payload is a :class:`ScanPlan` from
        :meth:`plan_scan`, in :attr:`shard_rows`-row ranges; with an adopted delta
        context it carries the node's remembered prefix set as its base,
        so only the appended rows are scanned).  ``source`` is an
        algorithm-supplied rollup source (a failed BFS parent, a
        super-root, a cube base set); it wins over the cache's ancestor
        search because it is by construction at least as close.

        Cache accounting happens here — the planning step — so serial and
        parallel execution record identical ``cache.*`` counters: an exact
        hit bumps ``cache.hits``; an ancestor substitution bumps both
        ``cache.hits`` and ``cache.rollup_saves``; only a plan that ends
        in a table scan despite consulting the cache bumps
        ``cache.misses``.  With a cache attached, the plan step is timed
        into ``latency.cache_lookup_seconds`` (lookup + ancestor search).
        """
        if self.cache is None:
            return self._plan_job(node, source)
        with self.stats.metrics.timer("latency.cache_lookup_seconds"):
            return self._plan_job(node, source)

    def _plan_job(
        self, node: LatticeNode, source: FrequencySet | None
    ) -> tuple[str, Any]:
        if source is not None and source.node == node:
            return ("use", source)
        cache = self.cache
        if cache is not None:
            hit = cache.get(node)
            if hit is not None:
                self.stats.cache_hits += 1
                return ("use", hit)
        if source is not None:
            return ("rollup", source)
        if cache is not None:
            ancestor = cache.nearest_ancestor(node)
            if ancestor is not None:
                self.stats.cache_hits += 1
                self.stats.cache_rollup_saves += 1
                return ("rollup", ancestor)
            self.stats.cache_misses += 1
        delta = self._delta
        if delta is not None:
            # Incremental maintenance: a remembered prefix set turns this
            # scan into a delta-only scan plus an exact merge.  Decided
            # here — in the parent, like all planning — so the
            # incremental.* accounting is identical across execution
            # modes.  Only a would-be *scan* is replaced: rollups are
            # already cheaper than any delta scan and keeping them keeps
            # the frequency.* counters bit-identical to from-scratch.
            piece = delta.lookup(node)
            if piece is not None:
                self.stats.incremental_base_hits += 1
                base = (piece.key_codes, piece.counts, piece.covered_rows)
                return ("scan", self.plan_scan(base))
            self.stats.incremental_base_misses += 1
        return ("scan", self.plan_scan())

    def execute_job(self, node: LatticeNode, kind: str, payload) -> FrequencySet:
        """Carry out a plan from :meth:`resolve_job` (no cache admission)."""
        if payload is None:
            raise ValueError(f"{kind!r} job has no payload")
        if kind == "use":
            return payload
        if kind == "rollup":
            return self.rollup(payload, node)
        if kind == "scan":
            return self.scan(node, payload)
        raise ValueError(f"unknown frequency-set job kind {kind!r}")

    def cache_put(self, frequency_set: FrequencySet) -> None:
        """Admit a freshly materialised set, accounting evictions.

        With a delta context adopted, every materialised set is also
        *captured* as that node's prefix set for the next dataset version
        — any full materialisation (scan, rollup or projection) covers
        exactly the current row count.  Capture
        happens in the parent for all execution modes (workers never see
        the context), so ``incremental.captures`` is mode-independent.
        """
        delta = self._delta
        if delta is not None:
            evicted = delta.capture(frequency_set, self.problem.num_rows)
            self.stats.incremental_captures += 1
            if evicted:
                self.stats.incremental_evictions += evicted
        if self.cache is None:
            return
        evicted = self.cache.put(frequency_set)
        if evicted:
            self.stats.cache_evictions += evicted

    def materialize(
        self,
        node: LatticeNode,
        source: FrequencySet | None = None,
    ) -> FrequencySet:
        """Obtain ``node``'s frequency set the cheapest known way.

        The serial convenience wrapper over resolve → execute → admit; the
        parallel evaluator performs the same three steps with the middle
        one on workers, one whole job (a scan plan and all its ranges) at
        a time.
        """
        kind, payload = self.resolve_job(node, source)
        result = self.execute_job(node, kind, payload)
        if kind != "use":
            self.cache_put(result)
        return result
