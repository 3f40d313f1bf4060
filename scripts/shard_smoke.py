#!/usr/bin/env python
"""Full-scale shard smoke: bounded memory, bit-identical results.

Streams a Lands End table of ``--rows`` rows straight into shared memory
(:func:`repro.datasets.landsend.landsend_problem_shm` — the full table is
never held as ordinary process memory), runs Basic and Super-roots
Incognito over it, each both serially and under the ``shards`` execution
mode, and asserts:

* each search's two runs agree exactly — same anonymous nodes, same
  structural counters (scans, frequency-set rows, nodes checked);
* this process's peak RSS stayed inside ``--rss-budget-mb``, i.e. the
  zero-copy path really is zero-copy, the streaming generator really
  is streaming, and Super-roots holds one family's meet at a time.

CI runs it at ``REPRO_SMOKE_ROWS`` (default 600,000) so the job finishes
in minutes; ``--rows full`` reproduces the paper's 4,591,581-row scale
with the same budget.

Usage::

    PYTHONPATH=src python scripts/shard_smoke.py [--rows N|full]
        [--qi-size N] [--workers N] [--shard-rows N] [--rss-budget-mb MB]

Exit status 0 on success, 1 with a problem listing otherwise.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

from repro.bench.workloads import release_problem
from repro.core.incognito import basic_incognito
from repro.core.superroots import superroots_incognito
from repro.datasets.landsend import FULL_ROWS, landsend_problem_shm
from repro.parallel import ExecutionConfig, use_execution

#: Structural stats that must be bit-identical across execution modes.
STRUCTURAL_FIELDS = (
    "nodes_checked",
    "nodes_marked",
    "nodes_generated",
    "table_scans",
    "rollups",
    "frequency_set_rows",
    "rollup_source_rows",
    "peak_frequency_set_rows",
)

#: The searches the smoke runs, each serially and under ``shards``.
ALGORITHMS = (basic_incognito, superroots_incognito)


def peak_rss_mb() -> float:
    """This process's lifetime peak RSS in MiB (ru_maxrss, unit-corrected)."""
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    return ru_maxrss * scale / (1024 * 1024)


def smoke(
    rows: int, qi_size: int, workers: int, shard_rows: int | None, k: int
) -> list[str]:
    """Run the differential + memory smoke; return problems found."""
    problems: list[str] = []
    built_at = time.perf_counter()
    problem = landsend_problem_shm(rows, qi_size=qi_size)
    runs = []
    try:
        print(
            f"built {rows:,} rows x {qi_size} QI attributes into shared "
            f"memory in {time.perf_counter() - built_at:.1f}s "
            f"(peak RSS so far {peak_rss_mb():.0f} MiB)",
            file=sys.stderr,
        )
        config = ExecutionConfig(
            mode="shards", workers=workers, shard_rows=shard_rows
        )
        width = (
            "one range per scan"
            if shard_rows is None
            else f"{shard_rows:,}-row ranges"
        )
        for algorithm in ALGORITHMS:
            name = algorithm.__name__
            serial = algorithm(problem, k)
            print(
                f"{name} serial:  {serial.stats.elapsed_seconds:.2f}s, "
                f"{len(serial.anonymous_nodes)} solutions "
                f"(peak RSS so far {peak_rss_mb():.0f} MiB)",
                file=sys.stderr,
            )
            with use_execution(config):
                sharded = algorithm(problem, k)
            counters = sharded.stats.counters
            print(
                f"{name} shards:  {sharded.stats.elapsed_seconds:.2f}s "
                f"({workers} workers, {width}: "
                f"{counters.get('shard.range_scans'):,} range scans, "
                f"{counters.get('shard.merges'):,} merges)",
                file=sys.stderr,
            )
            runs.append((name, serial, sharded))
    finally:
        release_problem(problem)

    for name, serial, sharded in runs:
        serial_nodes = [str(node) for node in serial.anonymous_nodes]
        sharded_nodes = [str(node) for node in sharded.anonymous_nodes]
        if serial_nodes != sharded_nodes:
            problems.append(
                f"{name}: anonymous nodes diverge: serial {serial_nodes} "
                f"vs shards {sharded_nodes}"
            )
        for field in STRUCTURAL_FIELDS:
            serial_value = getattr(serial.stats, field)
            sharded_value = getattr(sharded.stats, field)
            if serial_value != sharded_value:
                problems.append(
                    f"{name}: {field} diverges: serial {serial_value} vs "
                    f"shards {sharded_value}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rows",
        default=os.environ.get("REPRO_SMOKE_ROWS", "600000"),
        metavar="N|full",
        help="row count ('full' = the paper's 4,591,581; default: "
        "$REPRO_SMOKE_ROWS or 600,000)",
    )
    parser.add_argument("--qi-size", type=int, default=4)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--shard-rows",
        type=int,
        default=None,
        metavar="N",
        help="width of the row ranges each scan loops over "
        "(default: one range per scan)",
    )
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument(
        "--rss-budget-mb",
        type=float,
        default=float(os.environ.get("REPRO_SMOKE_RSS_MB", "1024")),
        metavar="MB",
        help="peak-RSS ceiling for this process (default: "
        "$REPRO_SMOKE_RSS_MB or 1024)",
    )
    args = parser.parse_args(argv)
    rows = FULL_ROWS if args.rows == "full" else int(args.rows)

    problems = smoke(
        rows, args.qi_size, args.workers, args.shard_rows, args.k
    )
    peak = peak_rss_mb()
    print(
        f"peak RSS {peak:.0f} MiB (budget {args.rss_budget_mb:.0f} MiB)",
        file=sys.stderr,
    )
    if peak > args.rss_budget_mb:
        problems.append(
            f"peak RSS {peak:.0f} MiB exceeded the "
            f"{args.rss_budget_mb:.0f} MiB budget"
        )

    if problems:
        print("shard smoke FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("shard smoke OK", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
