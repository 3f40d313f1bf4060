"""The run flags shared by ``python -m repro`` and the figure runner.

:func:`add_run_arguments` defines all eleven on a parser: the five
observability flags (``--trace``, ``--trace-format``, ``--metrics-out``,
``--profile``, ``--cache-mb``) and the six execution flags (``--workers``
to ``--inject-faults``).  :func:`run_region` turns the parsed values into
the run's :class:`~repro.parallel.config.ExecutionConfig`, frequency-set
cache and tracer, installs them around the run, and writes the trace and
the metrics dump when it ends.  Neither command line keeps its own copy
of any of it.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from repro import obs
from repro.core.fscache import FrequencySetCache, use_cache
from repro.parallel.config import ExecutionConfig, use_execution
from repro.resilience import atomic_write_json, atomic_write_text
from repro.resilience.faults import FaultPlan


def _fault_plan(text: str) -> FaultPlan:
    """argparse type for ``--inject-faults``; clean errors on bad specs."""
    try:
        return FaultPlan.from_spec(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the run flags :func:`run_region` reads."""
    parser.add_argument(
        "--trace",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="record obs trace spans (scans, rollups, group-bys, joins) as "
        "JSON lines to FILE, creating its directory (default stderr; write "
        "--trace=- when a positional argument follows)",
    )
    parser.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome", "folded"],
        default="jsonl",
        help="trace output format: raw JSON lines (default), Chrome "
        "trace-event JSON (Perfetto-loadable), or folded-stack "
        "flamegraph text",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run's metric histogram summaries "
        "(count/sum/min/max/p50/p90/p99 per instrument) as JSON to PATH",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top hotspots to stderr",
    )
    parser.add_argument(
        "--cache-mb",
        type=int,
        default=0,
        metavar="MB",
        help="share a frequency-set cache of this many MiB across the whole "
        "run (0 = off); repeat probes become cache hits instead of table "
        "scans, and cache.* counters land in the benchmark JSON",
    )
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
        default="threads",
        help="worker backend when --workers > 1 (default: threads, which "
        "share the table and rollup sources with the parent; shards are "
        "worker processes that attach the table in shared memory and run "
        "the table scans while the parent rolls up, which pays off when "
        "jobs are too small to release the GIL; processes is an alias "
        "for shards)",
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


@contextmanager
def run_region(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Iterator[ExecutionConfig]:
    """Run the enclosed block under the flags of :func:`add_run_arguments`.

    Every value is checked before anything is opened: a bad one is a
    ``parser.error`` (exit 2) that leaves no trace file behind.  Then the
    region's tracer, execution config and cache are installed, under
    cProfile with ``--profile``, and the execution config is yielded.  On
    the way out a chrome or folded trace is rendered, a JSON-lines sink is
    closed and ``--metrics-out`` is written, also when the block raises.
    """
    if args.trace_format != "jsonl" and args.trace is None:
        parser.error("--trace-format requires --trace FILE")
    if args.cache_mb < 0:
        parser.error(f"--cache-mb must be >= 0, got {args.cache_mb}")
    try:
        execution = replace(
            ExecutionConfig.from_workers(args.workers, args.parallel_mode),
            chunk_timeout=args.chunk_timeout,
            max_retries=args.max_retries,
            faults=args.inject_faults,
            shard_rows=args.shard_rows,
        )
    except ValueError as error:
        parser.error(str(error))
    cache = FrequencySetCache(args.cache_mb * 1024 * 1024) if args.cache_mb else None

    sink: obs.Sink | None = None
    if args.trace is not None:
        if args.trace_format != "jsonl":
            # chrome/folded render from the complete span set at the end.
            sink = obs.InMemorySink()
        elif args.trace == "-":
            sink = obs.JsonLinesSink(sys.stderr)
        else:
            sink = obs.JsonLinesSink.open(args.trace)
    tracer = (
        obs.Tracer(sink)
        if sink is not None or args.metrics_out is not None
        else obs.get_tracer()
    )
    try:
        with ExitStack() as stack:
            stack.enter_context(obs.use_tracer(tracer))
            stack.enter_context(use_execution(execution))
            stack.enter_context(use_cache(cache))
            if args.profile:
                stack.enter_context(obs.profile())
            yield execution
    finally:
        if isinstance(sink, obs.InMemorySink):
            rendered = obs.render_trace(
                [span.to_dict() for span in sink.spans], args.trace_format
            )
            if args.trace == "-":
                sys.stderr.write(rendered)
            else:
                atomic_write_text(args.trace, rendered)
        elif isinstance(sink, obs.JsonLinesSink):
            sink.close()
        if args.metrics_out is not None:
            atomic_write_json(args.metrics_out, tracer.metrics.as_dict(), indent=2)
