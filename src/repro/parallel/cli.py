"""The execution flags shared by ``python -m repro`` and the figure runner.

:func:`add_execution_arguments` defines them on a parser and
:func:`execution_from_args` turns the parsed values into the run's
:class:`~repro.parallel.config.ExecutionConfig`, so neither command line
keeps its own copy of either.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.parallel.config import ExecutionConfig
from repro.resilience.faults import FaultPlan


def _fault_plan(text: str) -> FaultPlan:
    """argparse type for ``--inject-faults``; clean errors on bad specs."""
    try:
        return FaultPlan.from_spec(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the execution flags :func:`execution_from_args` reads."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="evaluate each lattice level's nodes on this many workers "
        "(1 = serial; results are identical either way)",
    )
    parser.add_argument(
        "--parallel-mode",
        choices=["threads", "processes", "shards"],
        default="shards",
        help="worker backend when --workers > 1 (default: shards, worker "
        "processes that attach the table in shared memory and each run "
        "whole scan and rollup jobs; threads avoid process start-up "
        "cost on small tables; processes is an alias for shards)",
    )
    parser.add_argument(
        "--shard-rows",
        type=int,
        default=None,
        metavar="N",
        help="width of the row ranges each table scan loops over, in "
        "every mode; the job holding a scan reads N rows at a time, "
        "which gives the out-of-core scan (default: one range per scan; "
        "execution granularity only, never the results)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervision timeout per parallel chunk; a chunk exceeding it "
        "is abandoned and retried (default: wait forever)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="failed-chunk retries before falling back to serial execution "
        "of that chunk in the parent (default: 3)",
    )
    parser.add_argument(
        "--inject-faults",
        type=_fault_plan,
        default=None,
        metavar="SPEC",
        help="deterministically inject worker failures for resilience "
        "testing, e.g. 'crash=0.2,timeout=0.1,seed=7' "
        "(keys: crash, timeout, slow, poison, memory, seed, hold, delay); "
        "results are bit-identical to a fault-free run",
    )


def execution_from_args(args: argparse.Namespace) -> ExecutionConfig:
    """The run's config from the flags of :func:`add_execution_arguments`.

    Raises ``ValueError`` on invalid values.
    """
    return replace(
        ExecutionConfig.from_workers(args.workers, args.parallel_mode),
        chunk_timeout=args.chunk_timeout,
        max_retries=args.max_retries,
        faults=args.inject_faults,
        shard_rows=args.shard_rows,
    )
