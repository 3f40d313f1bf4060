"""The paper's experimental workloads (Section 4), parameterised.

Row counts honour two environment variables so the sweeps scale from CI
smoke runs to full-size reproductions:

* ``REPRO_ADULTS_ROWS``   — default 45,222 (the paper's cleaned size);
* ``REPRO_LANDSEND_ROWS`` — default 200,000 (paper: 4,591,581; see
  DESIGN.md on why the curve shapes are row-count invariant).
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from repro.bench.harness import ALGORITHMS, MeasuredRun, Series, run_algorithm
from repro.core.problem import PreparedTable
from repro.datasets.adults import ADULTS_QI, adults_problem
from repro.datasets.landsend import (
    LANDSEND_QI,
    landsend_problem,
    landsend_problem_shm,
)
from repro.parallel import ExecutionConfig, use_execution


def _env_rows(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def adults_rows() -> int:
    return _env_rows("REPRO_ADULTS_ROWS", 45_222)


def landsend_rows() -> int:
    return _env_rows("REPRO_LANDSEND_ROWS", 200_000)


def make_problem(database: str, qi_size: int, *, rows: int | None = None) -> PreparedTable:
    """Build the problem for one sweep point of either database.

    The table is the same in every execution mode, so ``--workers N``
    changes timings, never the figures.  (The streaming shared-memory
    builder :func:`landsend_problem_shm` draws a different table than
    :func:`landsend_problem`; only the shard-scaling sweep uses it.)
    """
    if database == "adults":
        return adults_problem(rows if rows is not None else adults_rows(), qi_size=qi_size)
    if database == "landsend":
        return landsend_problem(
            rows if rows is not None else landsend_rows(), qi_size=qi_size
        )
    raise ValueError(f"unknown database {database!r}")


def release_problem(problem: PreparedTable) -> None:
    """Close the shared-memory store riding on ``problem``, if any.

    No-op for ordinary in-memory problems; for shm-backed ones this
    unlinks the segments so a long sweep's storage is bounded by one
    sweep point, not the whole sweep.
    """
    store = getattr(problem, "_shm_store", None)
    if store is not None:
        store.close()


#: Figure 10's QI-size ranges ("we began with the first three attributes").
FIGURE10_QI_SIZES = {
    "adults": tuple(range(3, len(ADULTS_QI) + 1)),      # 3..9
    "landsend": tuple(range(1, 7)),                      # 1..6 as plotted
}

#: Figure 11's k values.
FIGURE11_KS = (2, 5, 10, 25, 50)


def figure10_sweep(
    database: str,
    k: int,
    *,
    qi_sizes: Sequence[int] | None = None,
    algorithms: Sequence[str] | None = None,
    rows: int | None = None,
    repeats: int = 1,
    progress: Callable[[str], None] | None = None,
) -> list[Series]:
    """Elapsed time vs quasi-identifier size, all six algorithms (Fig 10)."""
    if qi_sizes is None:
        qi_sizes = FIGURE10_QI_SIZES[database]
    if algorithms is None:
        algorithms = list(ALGORITHMS)
    series = {name: Series(name) for name in algorithms}
    for qi_size in qi_sizes:
        problem = make_problem(database, qi_size, rows=rows)
        for name in algorithms:
            run = run_algorithm(name, problem, k, repeats=repeats)
            series[name].add(qi_size, run)
            if progress is not None:
                progress(
                    f"fig10[{database} k={k}] qid={qi_size} {name}: "
                    f"{run.elapsed_seconds:.3f}s ({run.nodes_checked} nodes)"
                )
    return [series[name] for name in algorithms]


def figure11_sweep(
    database: str,
    *,
    ks: Sequence[int] = FIGURE11_KS,
    rows: int | None = None,
    repeats: int = 1,
    progress: Callable[[str], None] | None = None,
) -> list[Series]:
    """Elapsed time vs k for fixed quasi-identifier size (Fig 11).

    Adults uses QID 8 for every algorithm; Lands End is "staggered" like the
    paper's plot — Binary Search at QID 6 (its QID-8 lattice is intractable
    for it), the Incognito variants at QID 8.
    """
    if database == "adults":
        lineup = [
            ("Binary Search", 8),
            ("Bottom-Up (w/ rollup)", 8),
            ("Basic Incognito", 8),
            ("Super-roots Incognito", 8),
        ]
    elif database == "landsend":
        lineup = [
            ("Binary Search (QID = 6)", 6),
            ("Basic Incognito (QID = 8)", 8),
            ("Super-roots Incognito (QID = 8)", 8),
        ]
    else:
        raise ValueError(f"unknown database {database!r}")

    problems = {
        qi_size: make_problem(database, qi_size, rows=rows)
        for qi_size in {qi for _, qi in lineup}
    }
    series = []
    for label, qi_size in lineup:
        algorithm = label.split(" (QID")[0]
        line = Series(label)
        for k in ks:
            run = run_algorithm(algorithm, problems[qi_size], k, repeats=repeats)
            line.add(k, run)
            if progress is not None:
                progress(
                    f"fig11[{database}] k={k} {label}: {run.elapsed_seconds:.3f}s"
                )
        series.append(line)
    return series


def figure12_sweep(
    database: str,
    *,
    k: int = 2,
    qi_sizes: Sequence[int] | None = None,
    rows: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> Series:
    """Cube Incognito's build/anonymize cost breakdown vs QI size (Fig 12)."""
    if qi_sizes is None:
        qi_sizes = (
            tuple(range(3, len(ADULTS_QI) + 1))
            if database == "adults"
            else tuple(range(3, len(LANDSEND_QI) + 1))
        )
    line = Series("Cube Incognito")
    for qi_size in qi_sizes:
        run = run_algorithm(
            "Cube Incognito", make_problem(database, qi_size, rows=rows), k
        )
        line.add(qi_size, run)
        if progress is not None:
            progress(
                f"fig12[{database}] qid={qi_size}: build "
                f"{run.cube_build_seconds:.3f}s + anonymize "
                f"{run.anonymization_seconds:.3f}s"
            )
    return line


def shard_scale_sweep(
    *,
    k: int = 2,
    qi_size: int = 4,
    rows: int | None = None,
    workers: int = 4,
    shard_rows: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[Series]:
    """Serial vs shard-mode Basic Incognito over one shm-backed table.

    Builds the Lands End problem once, streamed straight into shared
    memory, then times "Basic Incognito" twice over the *same* problem:
    serially and under the ``shards`` execution mode (``workers``
    processes attaching the segments zero-copy, each scan looping over
    ``shard_rows``-row ranges in its worker, one range when None).  The
    results are bit-identical by construction — this workload records the
    speedup, and the bench regression gate holds it.
    """
    num_rows = rows if rows is not None else landsend_rows()
    problem = landsend_problem_shm(num_rows, qi_size=qi_size)
    try:
        series = []
        configs = [
            ("Basic Incognito (serial)", ExecutionConfig()),
            (
                "Basic Incognito (shards)",
                ExecutionConfig(
                    mode="shards", workers=workers, shard_rows=shard_rows
                ),
            ),
        ]
        for label, config in configs:
            line = Series(label)
            with use_execution(config):
                run = run_algorithm("Basic Incognito", problem, k)
            # The two runs are the same algorithm under different execution
            # modes; relabel so the bench JSON (and the regression gate's
            # workload keys) keep them apart.
            run.algorithm = label
            line.add(qi_size, run)
            if progress is not None:
                progress(
                    f"shard[k={k} qid={qi_size} rows={num_rows}] {label}: "
                    f"{run.elapsed_seconds:.3f}s"
                )
            series.append(line)
        return series
    finally:
        release_problem(problem)


def incremental_sweep(
    *,
    k: int = 2,
    qi_size: int = 5,
    batches: int = 10,
    rows: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[Series]:
    """Full recompute vs steady-state incremental re-anonymization (Adults).

    Streams the Adults table in ``batches`` row-batches through an
    :class:`~repro.incremental.IncrementalSession` (Basic Incognito):
    version 0 anonymizes the first batch from scratch, versions
    ``1..batches-2`` prime the remembered prefix sets, and the *final*
    append's run is the measured one — the steady state where every node's
    frequency set is a remembered prefix plus one small delta scan.  The
    from-scratch line anonymizes the same concatenated table in one shot.
    Bit-identity between the two is proven by ``tests/incremental`` and
    ``scripts/incremental_smoke.py``; this workload records the cost ratio
    and the bench regression gate holds it.
    """
    import numpy as np

    from repro import obs
    from repro.bench.harness import measured_run_from_result
    from repro.core.incognito import basic_incognito
    from repro.incremental import IncrementalSession

    if batches < 2:
        raise ValueError("incremental_sweep needs at least two batches")
    full = make_problem("adults", qi_size, rows=rows)
    qi = full.quasi_identifier
    hierarchies = {name: full.hierarchy(name).source for name in qi}
    bounds = [
        round(index * full.num_rows / batches) for index in range(batches + 1)
    ]
    batch_tables = [
        full.table.take(np.arange(lo, hi))
        for lo, hi in zip(bounds, bounds[1:])
    ]

    session = IncrementalSession(
        PreparedTable(batch_tables[0], hierarchies, qi),
        k,
        algorithm="basic",
    )

    # Every run sits under a bench.run root span (the trace contract the
    # other workloads follow); incremental.version spans nest inside.
    def versioned_run():
        with obs.span(
            "bench.run",
            algorithm="Basic Incognito (incremental)",
            k=k,
            repeat=session.version,
        ):
            return session.run()

    versioned_run()  # version 0: full scans
    for delta in batch_tables[1:-1]:
        session.append(delta)
        versioned_run()  # prime the remembered prefix sets
    session.append(batch_tables[-1])
    incremental = measured_run_from_result(
        "Basic Incognito (incremental)", versioned_run()
    )

    # From-scratch over the *same* concatenated table (identical codes).
    scratch_problem = PreparedTable(
        session.dataset.problem.table, hierarchies, qi
    )
    with obs.span(
        "bench.run", algorithm="Basic Incognito (from scratch)", k=k, repeat=0
    ):
        scratch_result = basic_incognito(scratch_problem, k)
    scratch = measured_run_from_result(
        "Basic Incognito (from scratch)", scratch_result
    )

    series = []
    for run in (scratch, incremental):
        line = Series(run.algorithm)
        line.add(batches, run)
        if progress is not None:
            progress(
                f"incremental[k={k} qid={qi_size} batches={batches}] "
                f"{run.algorithm}: {run.elapsed_seconds:.3f}s"
            )
        series.append(line)
    return series


def _service_dataset_csv(directory) -> str:
    """Write a small, CSV-stable table and return its connector ref.

    String-typed ages with a rounding hierarchy and a suppression column
    survive the CSV round trip bit-exactly (no schema inference), so every
    job over this dataset is deterministic across runner processes.
    """
    from pathlib import Path

    from repro.resilience.atomicio import atomic_write_text

    path = Path(directory) / "service-bench.csv"
    lines = ["age,sex,disease"]
    for row in range(96):
        age = 20 + (row * 7) % 60
        sex = "M" if row % 2 else "F"
        disease = ("flu", "cold", "asthma")[row % 3]
        lines.append(f"{age},{sex},{disease}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    return f"csv:{path}"


def service_job_sweep(
    *,
    jobs: int = 6,
    k: int = 2,
    max_running: Sequence[int] = (1, 2),
    progress: Callable[[str], None] | None = None,
) -> list[Series]:
    """Job-server throughput: ``jobs`` identical jobs per concurrency width.

    Each configuration drives a real :class:`repro.service.manager.JobManager`
    (runner subprocesses forked from a preloaded fork server, WAL
    persistence — the full service stack minus HTTP) on a throwaway data
    directory, submits ``jobs`` identical anonymization jobs, and waits
    for the batch to go idle.  The measured elapsed time is the batch wall
    clock, so jobs/sec is ``jobs / elapsed`` (recorded under
    ``service.jobs_per_second`` in the raw counter dump) and the p99 job
    latency rides along in the ``latency.job_total_seconds`` metric
    summary — both land in ``BENCH_incognito.json`` where the regression
    gate diffs them.
    """
    import tempfile
    import time

    from repro.service.jobs import JobSpec
    from repro.service.manager import JobManager

    series = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as scratch:
        dataset = _service_dataset_csv(scratch)
        spec = JobSpec(
            dataset=dataset,
            k=k,
            algorithm="basic",
            qi=("age", "sex"),
            hierarchies={
                "age": {"type": "rounding", "digits": 2},
                "sex": {"type": "suppression"},
            },
        )
        for width in max_running:
            label = f"Service ({width} runner{'s' if width > 1 else ''})"
            # Admission bounds sized to the batch: this workload measures
            # throughput, not the (separately tested) overload rejections.
            manager = JobManager(
                f"{scratch}/svc-w{width}",
                max_running=width,
                max_queue=jobs,
                tenant_budget=jobs,
                retry_backoff_base=0.01,
                retry_backoff_cap=0.05,
            )
            manager.start()
            try:
                start = time.perf_counter()
                submitted = [manager.submit(spec) for _ in range(jobs)]
                if not manager.wait_idle(600.0):
                    raise RuntimeError(f"{label}: batch never went idle")
                elapsed = time.perf_counter() - start
                states = [manager.get(record.id).state for record in submitted]
                if states.count("succeeded") != jobs:
                    raise RuntimeError(f"{label}: job states {states}")
                counters = manager.counters.as_dict()
                counters["service.jobs_per_second"] = (
                    jobs / elapsed if elapsed > 0 else 0.0
                )
                run = MeasuredRun(
                    algorithm=label,
                    elapsed_seconds=elapsed,
                    nodes_checked=0,
                    table_scans=0,
                    rollups=0,
                    solutions=jobs,
                    counters=counters,
                    metrics=manager.metrics.as_dict(),
                )
            finally:
                manager.drain()
            line = Series(label)
            line.add(jobs, run)
            if progress is not None:
                p99 = run.metrics.get("latency.job_total_seconds", {}).get(
                    "p99", 0.0
                )
                progress(
                    f"service[k={k} jobs={jobs}] {label}: {elapsed:.3f}s "
                    f"({jobs / elapsed:.2f} jobs/s, p99 job {p99:.3f}s)"
                )
            series.append(line)
    return series


def nodes_searched_runs(
    *,
    k: int = 2,
    qi_sizes: Sequence[int] = tuple(range(3, 10)),
    rows: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[tuple[int, "MeasuredRun", "MeasuredRun"]]:
    """Full measurements behind the Section 4.2.1 table.

    Returns ``(qi_size, bottom_up_run, incognito_run)`` rows for the Adults
    database at the given ``k`` — the JSON export needs the whole
    measurement, not just the node counts.
    """
    table = []
    for qi_size in qi_sizes:
        problem = make_problem("adults", qi_size, rows=rows)
        bottom_up = run_algorithm("Bottom-Up (w/ rollup)", problem, k)
        incognito = run_algorithm("Basic Incognito", problem, k)
        table.append((qi_size, bottom_up, incognito))
        if progress is not None:
            progress(
                f"nodes[k={k}] qid={qi_size}: bottom-up "
                f"{bottom_up.nodes_checked} vs incognito {incognito.nodes_checked}"
            )
    return table


def nodes_searched_table(
    *,
    k: int = 2,
    qi_sizes: Sequence[int] = tuple(range(3, 10)),
    rows: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[tuple[int, int, int]]:
    """The Section 4.2.1 in-text table: nodes searched, Bottom-Up vs Incognito.

    Returns ``(qi_size, bottom_up_nodes, incognito_nodes)`` rows for the
    Adults database at the given ``k``.
    """
    return [
        (qi_size, bottom_up.nodes_checked, incognito.nodes_checked)
        for qi_size, bottom_up, incognito in nodes_searched_runs(
            k=k, qi_sizes=qi_sizes, rows=rows, progress=progress
        )
    ]


def format_nodes_table(rows: list[tuple[int, int, int]]) -> str:
    """Render the nodes-searched table like the paper's in-text listing."""
    lines = ["QID size  Bottom-Up  Incognito"]
    lines.append("-" * len(lines[0]))
    for qi_size, bottom_up, incognito in rows:
        lines.append(f"{qi_size:>8}  {bottom_up:>9}  {incognito:>9}")
    return "\n".join(lines)
