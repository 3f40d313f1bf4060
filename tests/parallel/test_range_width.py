"""The width of a scan's row ranges never changes a result.

A scan plan is the rows its remembered base does not cover, split every
``shard_rows`` rows; in every mode, the job holding the plan scans its
ranges in a loop (in the parent, a pool thread or a shard worker).  For
every width, mode and base, each frequency set must decode to the
kernel-independent reference (``tests/reference.py``), and every
``frequency.*``, ``incremental.*`` and ``dist.*`` counter must equal the
unset-width serial run's.  The ``shard.*`` range counters follow one rule
in every mode: each range of a plan with more than one range is one
ranged scan, and one-range plans record none.  Because the loop is the
same everywhere, ``shard.range_scans``, ``shard.rows_scanned``,
``shard.merges`` and the ``shard.rows_per_range`` histogram equal the
serial run's at the same width in every mode.
"""

from __future__ import annotations

import random

import pytest

from repro.core.anonymity import FrequencyEvaluator, compute_frequency_set_range
from repro.core.problem import PreparedTable
from repro.core.stats import SearchStats
from repro.incremental import DeltaContext, DeltaPiece, use_delta_context
from repro.parallel import BatchMaterializer, ExecutionConfig
from tests.conftest import make_random_problem
from tests.reference import ReferenceFrequencies, assert_matches_reference

MODES = {
    "serial": {},
    "threads": {"mode": "threads", "workers": 2},
    "shards": {"mode": "shards", "workers": 2},
}


def problems() -> list[PreparedTable]:
    """Two random tables, plus a 0-row table with the first one's schema."""
    tables = [make_random_problem(seed, num_rows=23) for seed in (5, 6)]
    first = tables[0]
    empty = PreparedTable(
        first.table.take([]),
        {name: first.hierarchy(name).source for name in first.quasi_identifier},
        first.quasi_identifier,
    )
    return [*tables, empty]


def resolve_width(width, num_rows: int) -> int | None:
    if width == "rows":
        return max(num_rows, 1)
    if width == "rows+1":
        return num_rows + 1
    return width


def resolve_cut(base: str, num_rows: int, seed: int) -> int | None:
    if base == "none":
        return None
    if base == "empty-delta":
        return num_rows
    return random.Random(seed).randint(0, num_rows)


def remembered(problem: PreparedTable, cut: int) -> DeltaContext:
    """Every node's exact frequency set over rows ``[0, cut)``."""
    context = DeltaContext()
    context.rebind(problem)
    for node in problem.lattice().nodes():
        prefix = compute_frequency_set_range(problem, node, 0, cut)
        context.install(DeltaPiece(node, cut, prefix.key_codes, prefix.counts))
    return context


def run_batch(problem, config, cut):
    context = None if cut is None else remembered(problem, cut)
    requests = [(node, None) for node in problem.lattice().nodes()]
    with use_delta_context(context):
        evaluator = FrequencyEvaluator(
            problem, SearchStats(), shard_rows=config.shard_rows
        )
        with BatchMaterializer(problem, config) as pool:
            sets = pool.materialize_batch(evaluator, requests)
    return sets, evaluator.stats


def invariant_surfaces(stats) -> tuple[dict, dict]:
    counters = {
        key: value
        for key, value in stats.counters.as_dict().items()
        if key.startswith(("frequency.", "incremental."))
    }
    return counters, stats.metrics.filtered("dist.")


def range_surfaces(stats) -> tuple[dict, dict]:
    counters = {
        key: stats.counters.get(key, 0)
        for key in ("shard.range_scans", "shard.rows_scanned", "shard.merges")
    }
    return counters, stats.metrics.filtered("shard.rows_per_range")


@pytest.mark.parametrize("base", ["none", "prefix", "empty-delta"])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("width", [1, 2, 3, 7, "rows", "rows+1", None])
def test_range_width_never_changes_results(width, mode, base):
    for seed, problem in enumerate(problems()):
        num_rows = problem.num_rows
        cut = resolve_cut(base, num_rows, seed)
        shard_rows = resolve_width(width, num_rows)
        context = f"width={shard_rows} mode={mode} cut={cut} rows={num_rows}"

        sets, stats = run_batch(
            problem, ExecutionConfig(**MODES[mode], shard_rows=shard_rows), cut
        )
        _, baseline = run_batch(problem, ExecutionConfig(), cut)
        _, serial_at_width = run_batch(
            problem, ExecutionConfig(shard_rows=shard_rows), cut
        )

        reference = ReferenceFrequencies(problem)
        for frequency_set in sets:
            assert_matches_reference(
                frequency_set,
                reference.frequency_set(frequency_set.node),
                f"{context} node={frequency_set.node}",
            )
        assert invariant_surfaces(stats) == invariant_surfaces(baseline), context
        assert range_surfaces(stats) == range_surfaces(serial_at_width), context

        remaining = num_rows - (cut or 0)
        ranges = -(-remaining // shard_rows) if shard_rows else 1
        split_plans = len(sets) if ranges > 1 else 0
        assert stats.shard_range_scans == ranges * split_plans, context
        assert stats.shard_rows_scanned == remaining * split_plans, context
