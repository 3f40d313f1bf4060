"""Command-line entry point regenerating the paper's figures and tables.

Usage::

    python -m repro.bench.run_figures all            # everything
    python -m repro.bench.run_figures fig10          # Figure 10 (4 panels)
    python -m repro.bench.run_figures fig11          # Figure 11 (2 panels)
    python -m repro.bench.run_figures fig12          # Figure 12 (2 panels)
    python -m repro.bench.run_figures nodes          # §4.2.1 nodes table
    python -m repro.bench.run_figures --quick        # CI-sized Fig-10 slice

Alongside the text figures, every invocation emits a machine-readable
``BENCH_incognito.json`` (schema: :mod:`repro.bench.export`) so perf
trajectories are diffable across commits.

Observability flags (defined, with the execution flags and ``--cache-mb``,
in :mod:`repro.parallel.cli`, which ``python -m repro`` shares):

* ``--trace [FILE]`` — record :mod:`repro.obs` spans to FILE (default
  stderr), creating its directory: per-iteration phases, scans, rollups,
  group-bys.
* ``--trace-format chrome|folded`` — render the trace as Chrome
  trace-event JSON (load the file in Perfetto / ``chrome://tracing``) or
  folded-stack flamegraph text instead of raw JSON lines.
* ``--metrics-out PATH`` — dump the run's latency/distribution histogram
  summaries (p50/p90/p99 per instrument) as one JSON object.
* ``--profile`` — wrap the run in cProfile and print the top hotspots.

Execution knobs: ``--workers N`` (with ``--parallel-mode``) evaluates each
lattice level on N workers, and ``--cache-mb M`` shares a frequency-set
cache across all runs of a sweep — cross-algorithm reuse shows up as
``cache.hits`` in the JSON while ``frequency.table_scans`` drops.

Resilience knobs (see :mod:`repro.resilience`): ``--chunk-timeout`` /
``--max-retries`` tune the supervised parallel path, ``--inject-faults
SPEC`` deterministically injects worker failures (figures and structural
counters are unchanged; ``fault.*`` / ``retry.*`` counters land in the
JSON), and ``--checkpoint DIR`` + ``--resume`` let an interrupted sweep
of fig10-12 or nodes pick up where it stopped without re-scanning
completed levels (the shard, incremental and service artifacts keep no
checkpoint: each compares two ways of computing one answer).  The JSON
export itself is written atomically, so a killed sweep never leaves a
torn ``BENCH_incognito.json``.

Scale knobs: ``REPRO_ADULTS_ROWS`` (default 45,222) and
``REPRO_LANDSEND_ROWS`` (default 200,000); ``--quick`` overrides both with
a small fixed workload.  Output goes to stdout and, with ``--out DIR``, to
one text file per artifact (plus the JSON document).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.bench.export import (
    BENCH_FILENAME,
    bench_document,
    run_record,
    write_bench_json,
)
from repro.bench.harness import Series, format_series_table
from repro.parallel.cli import add_run_arguments, run_region
from repro.resilience import atomic_write_text, use_checkpoints
from repro.bench.workloads import (
    adults_rows,
    figure10_sweep,
    figure11_sweep,
    figure12_sweep,
    format_nodes_table,
    incremental_sweep,
    landsend_rows,
    nodes_searched_runs,
    service_job_sweep,
    shard_scale_sweep,
)
from repro.datasets.landsend import FULL_ROWS

#: The ``--quick`` workload: a CI-sized Figure 10 slice that still exercises
#: every algorithm (Basic vs Cube counter parity is asserted downstream).
QUICK_ROWS = 1_500
QUICK_QI_SIZES = (3, 4)
QUICK_K = 2

#: The ``--quick`` shard workload: small enough for CI, big enough that
#: every scan loops over several row ranges in its worker.
QUICK_SHARD_ROWS = 6_000
QUICK_SHARD_WIDTH = 1_024
QUICK_SHARD_WORKERS = 2

#: The service workload: identical jobs pushed through the job server at
#: each concurrency width.  Each job anonymizes the 96-row service CSV,
#: so the batch stays CI-sized even at the full job count.
SERVICE_JOBS = 12
QUICK_SERVICE_JOBS = 6
SERVICE_WIDTHS = (1, 2)

#: The incremental workload: the Adults table streamed in this many
#: batches (``--quick`` shrinks the rows, never the batch count — the
#: steady-state measurement needs a long enough priming chain either way).
INCREMENTAL_BATCHES = 10
QUICK_INCREMENTAL_ROWS = 4_000
QUICK_INCREMENTAL_QI = 4


def _progress(message: str) -> None:
    print(f"  .. {message}", file=sys.stderr)


def _emit(name: str, text: str, out_dir: Path | None) -> None:
    print(text)
    print()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(out_dir / f"{name}.txt", text + "\n")


def _collect_series(
    records: list[dict],
    figure: str,
    database: str,
    x_name: str,
    series: list[Series],
    *,
    k: int | None = None,
) -> None:
    """Append every measurement of ``series`` to the JSON record list."""
    for line in series:
        for x, run in zip(line.x_values, line.runs):
            records.append(
                run_record(
                    figure,
                    database,
                    # Figure 11 sweeps k on the x axis; others fix it.
                    k if k is not None else int(x),
                    x_name,
                    x,
                    run,
                )
            )


def run_fig10(
    out_dir: Path | None,
    records: list[dict],
    *,
    quick: bool = False,
) -> None:
    from repro.bench.ascii_chart import format_series_chart

    databases = ("adults",) if quick else ("adults", "landsend")
    ks = (QUICK_K,) if quick else (2, 10)
    for database in databases:
        for k in ks:
            series = figure10_sweep(
                database,
                k,
                qi_sizes=QUICK_QI_SIZES if quick else None,
                rows=QUICK_ROWS if quick else None,
                progress=_progress,
            )
            _collect_series(records, "fig10", database, "qid_size", series, k=k)
            title = (
                f"Figure 10 — {database} database (k={k}): elapsed time vs "
                f"quasi-identifier size"
            )
            text = format_series_table(title, "QID", series)
            chart = format_series_chart(title, "QID", series)
            _emit(f"fig10_{database}_k{k}", text + "\n\n" + chart, out_dir)


def run_fig11(out_dir: Path | None, records: list[dict]) -> None:
    from repro.bench.ascii_chart import format_series_chart

    for database in ("adults", "landsend"):
        series = figure11_sweep(database, progress=_progress)
        _collect_series(records, "fig11", database, "k", series)
        title = f"Figure 11 — {database} database: elapsed time vs k"
        text = format_series_table(title, "k", series)
        chart = format_series_chart(title, "k", series)
        _emit(f"fig11_{database}", text + "\n\n" + chart, out_dir)


def run_fig12(out_dir: Path | None, records: list[dict]) -> None:
    for database in ("adults", "landsend"):
        line = figure12_sweep(database, progress=_progress)
        _collect_series(records, "fig12", database, "qid_size", [line], k=2)
        title = (
            f"Figure 12 — {database} database (k=2): Cube Incognito cost "
            f"breakdown vs quasi-identifier size"
        )
        build = format_series_table(
            title + " [cube build]",
            "QID",
            [line],
            value=lambda run: run.cube_build_seconds,
        )
        anonymize = format_series_table(
            title + " [anonymization]",
            "QID",
            [line],
            value=lambda run: run.anonymization_seconds,
        )
        _emit(f"fig12_{database}", build + "\n\n" + anonymize, out_dir)


def run_nodes(out_dir: Path | None, records: list[dict]) -> None:
    runs = nodes_searched_runs(progress=_progress)
    for qi_size, bottom_up, incognito in runs:
        for run in (bottom_up, incognito):
            records.append(
                run_record("nodes", "adults", 2, "qid_size", qi_size, run)
            )
    rows = [
        (qi_size, bottom_up.nodes_checked, incognito.nodes_checked)
        for qi_size, bottom_up, incognito in runs
    ]
    title = (
        "Section 4.2.1 — nodes searched (Adults, k=2, varied QID size)\n"
    )
    _emit("nodes_searched", title + format_nodes_table(rows), out_dir)


def run_shard(
    out_dir: Path | None,
    records: list[dict],
    *,
    quick: bool = False,
    workers: int = 4,
    shard_rows: int | None = None,
) -> None:
    """The shard-scaling artifact: serial vs shards on one shm table."""
    if quick:
        workers, shard_rows = QUICK_SHARD_WORKERS, QUICK_SHARD_WIDTH
    # Both lines run one algorithm on one table, so they would share a
    # checkpoint file; the sweep is cheap to redo, so it keeps none.
    with use_checkpoints(None):
        series = shard_scale_sweep(
            k=QUICK_K,
            qi_size=4,
            rows=QUICK_SHARD_ROWS if quick else None,
            workers=workers,
            shard_rows=shard_rows,
            progress=_progress,
        )
    _collect_series(records, "shard", "landsend", "qid_size", series, k=QUICK_K)
    title = (
        f"Shard scaling — landsend database (k={QUICK_K}, QID=4): serial vs "
        f"{workers}-worker zero-copy shard evaluation"
    )
    _emit("shard_scaling", format_series_table(title, "QID", series), out_dir)


def run_incremental(
    out_dir: Path | None,
    records: list[dict],
    *,
    quick: bool = False,
) -> None:
    """The incremental artifact: streamed re-anonymization vs from-scratch."""
    # The last version and the from-scratch run share a table, so they
    # would share a checkpoint file; the sweep is cheap to redo.
    with use_checkpoints(None):
        series = incremental_sweep(
            k=QUICK_K,
            qi_size=QUICK_INCREMENTAL_QI if quick else 5,
            batches=INCREMENTAL_BATCHES,
            rows=QUICK_INCREMENTAL_ROWS if quick else None,
            progress=_progress,
        )
    _collect_series(
        records, "incremental", "adults", "batches", series, k=QUICK_K
    )
    title = (
        f"Incremental re-anonymization — adults database (k={QUICK_K}, "
        f"{INCREMENTAL_BATCHES} appended batches): from-scratch vs "
        f"steady-state delta maintenance"
    )
    _emit(
        "incremental_reanonymize",
        format_series_table(title, "batches", series),
        out_dir,
    )


def run_service(
    out_dir: Path | None,
    records: list[dict],
    *,
    quick: bool = False,
) -> None:
    """The job-server artifact: batch throughput per concurrency width."""
    jobs = QUICK_SERVICE_JOBS if quick else SERVICE_JOBS
    series = service_job_sweep(
        jobs=jobs,
        k=QUICK_K,
        max_running=SERVICE_WIDTHS,
        progress=_progress,
    )
    _collect_series(records, "service", "synthetic", "jobs", series, k=QUICK_K)
    title = (
        f"Anonymization service — {jobs} identical jobs (k={QUICK_K}) per "
        f"runner-concurrency width: batch wall clock and throughput"
    )
    elapsed = format_series_table(title + " [elapsed]", "jobs", series)
    throughput = format_series_table(
        title + " [throughput]",
        "jobs",
        series,
        value=lambda run: run.counters["service.jobs_per_second"],
        unit=" jobs/s",
    )
    _emit("service_throughput", elapsed + "\n\n" + throughput, out_dir)


def _run_artifacts(args: argparse.Namespace, records: list[dict]) -> None:
    shard_kwargs = dict(
        # --workers defaults to 1 (serial figures); the shard artifact
        # exists to measure parallelism, so it never runs single-worker.
        workers=args.workers if args.workers > 1 else 4,
        shard_rows=args.shard_rows,
    )
    if args.quick:
        run_fig10(args.out, records, quick=True)
        run_shard(args.out, records, quick=True)
        run_incremental(args.out, records, quick=True)
        run_service(args.out, records, quick=True)
        return
    runners = {
        "fig10": run_fig10,
        "fig11": run_fig11,
        "fig12": run_fig12,
        "nodes": run_nodes,
        "shard": lambda out, recs: run_shard(out, recs, **shard_kwargs),
        "incremental": run_incremental,
        "service": run_service,
    }
    if args.artifact == "all":
        for runner in runners.values():
            runner(args.out, records)
    else:
        runners[args.artifact](args.out, records)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "artifact",
        nargs="?",
        default="all",
        choices=[
            "all",
            "fig10",
            "fig11",
            "fig12",
            "nodes",
            "shard",
            "incremental",
            "service",
        ],
        help="which figure/table to regenerate (default: all)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="directory for text outputs"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI-sized Figure 10 slice ({QUICK_ROWS} rows, "
        f"QID {QUICK_QI_SIZES}, k={QUICK_K}) instead of the full sweeps",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help=f"where to write the benchmark JSON "
        f"(default: <--out dir or .>/{BENCH_FILENAME})",
    )
    add_run_arguments(parser)
    parser.add_argument(
        "--rows",
        default=None,
        metavar="N|full",
        help="override the Lands End row count for this invocation "
        f"(same as REPRO_LANDSEND_ROWS; 'full' = the paper's {FULL_ROWS:,})",
    )
    parser.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="DIR",
        help="checkpoint the algorithm runs of fig10, fig11, fig12 and "
        "nodes into DIR (one file per algorithm, k, suppression budget and "
        "table; atomic writes); with --resume an interrupted sweep skips "
        "completed levels.  The shard, incremental and service artifacts "
        "keep no checkpoint",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume matching checkpoints found in --checkpoint DIR",
    )
    args = parser.parse_args(argv)

    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint DIR")

    if args.rows is not None:
        if args.rows == "full":
            rows_override = FULL_ROWS
        else:
            try:
                rows_override = int(args.rows)
            except ValueError:
                parser.error(f"--rows must be an integer or 'full', got {args.rows!r}")
        if rows_override < 1:
            parser.error(f"--rows must be >= 1, got {rows_override}")
        # The sweeps read REPRO_LANDSEND_ROWS per problem build; overriding
        # it here scales every landsend workload of this invocation.
        os.environ["REPRO_LANDSEND_ROWS"] = str(rows_override)

    if args.quick:
        print(
            f"(quick mode: adults rows={QUICK_ROWS}, "
            f"qid={QUICK_QI_SIZES}, k={QUICK_K})\n",
            file=sys.stderr,
        )
    else:
        print(
            f"(rows: adults={adults_rows()}, landsend={landsend_rows()}; "
            "set REPRO_ADULTS_ROWS / REPRO_LANDSEND_ROWS to rescale)\n",
            file=sys.stderr,
        )

    records: list[dict] = []

    with run_region(parser, args) as execution, use_checkpoints(
        args.checkpoint, args.resume
    ):
        _run_artifacts(args, records)

    if records:
        json_path = args.json
        if json_path is None:
            json_path = (args.out or Path(".")) / BENCH_FILENAME
        config = {
            "adults_rows": QUICK_ROWS if args.quick else adults_rows(),
            "landsend_rows": 0 if args.quick else landsend_rows(),
            "quick": bool(args.quick),
            "artifact": "fig10" if args.quick else args.artifact,
            "workers": execution.workers,
            "parallel_mode": execution.mode,
            "cache_mb": args.cache_mb,
            "shard_rows": args.shard_rows,
        }
        written = write_bench_json(json_path, bench_document(records, config))
        print(f"wrote {written} ({len(records)} runs)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
