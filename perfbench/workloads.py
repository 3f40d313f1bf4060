"""The benchmark's workloads, each run in a fresh process.

``run.py`` starts ``python3 perfbench/workloads.py PARAMS_JSON`` once per
(workload, seed); this process builds the inputs, measures, checks every
answer, and prints one JSON report as its last line.  The workload
functions take their sizes as keyword arguments so the tests can run
them at toy sizes.

``--seed`` permutes the rows of each generated table (within each append
segment).  Row order changes the inputs without changing the answer, so
one expected answer per generator seed checks every run, and the amount
of work is the same for every seed.  The generator seed itself is the
data seed: each dataset's own default, or a holdout chosen on the
command line.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import tracing
from repro.core.incognito import basic_incognito
from repro.core.problem import PreparedTable
from repro.core.superroots import superroots_incognito
from repro.datasets.adults import adults_hierarchies, adults_problem, adults_table
from repro.datasets.landsend import FULL_ROWS, landsend_problem, landsend_problem_shm
from repro.hierarchy.spec import hierarchies_from_spec, hierarchy_to_spec
from repro.incremental import IncrementalSession
from repro.parallel import ExecutionConfig
from repro.relational.csvio import read_csv, write_csv
from repro.service import ServiceClient
from repro.shard import SharedTableStore

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Every workload anonymizes at k = 2, the paper's Figure 10 setting.
K = 2
#: An untraced run sets up at least SETUP_REPS times, and more (up to
#: SETUP_MAX_REPS) while the set-ups so far took under SETUP_BUDGET_S;
#: ``setup_s`` is their median.
SETUP_REPS = 3
SETUP_MAX_REPS = 15
SETUP_BUDGET_S = 2.0
#: Service job quasi-identifier.  ``age`` is left out: a CSV reads it back
#: as strings, which its range hierarchy rejects.
SERVICE_QI = ("gender", "race", "marital_status", "education", "native_country")
TERMINAL = ("succeeded", "failed", "cancelled")


def answer_of(solutions: list[str], nodes_checked: int) -> dict[str, Any]:
    """An answer as expected.json stores it."""
    labels = "\n".join(sorted(solutions)).encode()
    return {
        "solutions": len(solutions),
        "nodes_checked": int(nodes_checked),
        "labels_sha256": hashlib.sha256(labels).hexdigest(),
    }


def result_answer(result: Any) -> dict[str, Any]:
    return answer_of(
        [node.label() for node in result.anonymous_nodes], result.stats.nodes_checked
    )


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(percent, value)``, or None with fewer than eleven samples.
    The value is the sample at that rank (nearest rank, no interpolation).
    """
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    for percent in range(99, 0, -1):
        rank = -(-percent * len(ordered) // 100)  # ceil: nearest-rank index + 1
        if len(ordered) - rank >= 10:
            return percent, ordered[rank - 1]
    return None


class Run:
    """Samples, answers and failures of one workload run.

    Untraced, a run sets up several times (see :data:`SETUP_REPS`), then
    repeats the operation while another one fits in ``seconds``.  Traced,
    it sets up once and runs the operation twice, once untraced and once
    with the layer wrappers installed (order alternating with the seed's
    parity), so the per-layer metrics and the tracing overhead come from
    one run.
    """

    def __init__(
        self,
        *,
        seed: int,
        seconds: float,
        scratch: Path,
        trace: bool = False,
        expected: dict[str, Any] | None = None,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scratch = Path(scratch)
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.recorder = tracing.Recorder() if trace else None
        #: answer label → expected answer; None records answers instead.
        self.expected = expected
        self.answers: dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.build_s: list[float] = []
        self.op_values: list[float] = []
        #: (traced?, value) per operation of a traced run.
        self.trace_values: list[tuple[bool, float]] = []
        #: Per-layer counts and times gathered during the traced operation.
        self.counts: dict[str, float] = {}
        self.latencies: list[float] = []
        self._tracing = False

    # -- measurement ---------------------------------------------------
    def span(self, name: str) -> Any:
        """A recorder span while the traced operation runs, else nothing."""
        return self.recorder.span(name) if self._tracing else nullcontext()

    def count(self, name: str, value: float) -> None:
        """Add to a per-layer total; only the traced operation counts."""
        if self._tracing:
            self.counts[name] = self.counts.get(name, 0) + value

    def clock(self, make: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call a dataset generator, recording its duration."""
        started = time.perf_counter()
        value = make(*args, **kwargs)
        self.build_s.append(time.perf_counter() - started)
        return value

    def setup(self, build: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        value = build()
        self.setup_s.append(time.perf_counter() - started)
        return value

    def _wants_setup(self) -> bool:
        done = len(self.setup_s)
        if done == 0:
            return True
        if self.recorder is not None or done >= SETUP_MAX_REPS:
            return False
        return done < SETUP_REPS or sum(self.setup_s) < SETUP_BUDGET_S

    def _operate(
        self, operate: Callable[[Any], float | None], state: Any, traced: bool
    ) -> float | None:
        """One operation's value: what ``operate`` returns (a median job
        latency) or else its duration.  None if it raised, which counts as
        a failed attempt."""
        self._tracing = traced
        started = time.perf_counter()
        try:
            with tracing.patched(self.recorder) if traced else nullcontext():
                value = operate(state)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        finally:
            self._tracing = False
        return time.perf_counter() - started if value is None else value

    def drive(
        self,
        setup: Callable[[], Any],
        operate: Callable[[Any], float | None],
        close: Callable[[Any], None] = lambda state: None,
        *,
        reusable: bool = True,
    ) -> None:
        """Set up, operate and close per the class docstring.

        A state that is not ``reusable`` (an append session) is consumed by
        one operation; the next operation sets up again.  A failed
        operation ends the run.
        """
        state = None
        try:
            while self._wants_setup():
                if state is not None:
                    close(state)
                # Dropped first, or two problems would be alive at the peak.
                state = None
                state = self.setup(setup)
            # None: an untraced operation of an untraced run.
            modes: list[bool | None] = [None] if self.recorder is None else (
                [False, True] if self.seed % 2 == 0 else [True, False]
            )
            spent = 0.0
            while modes:
                traced = modes.pop(0)
                if state is None:
                    state = self.setup(setup)
                started = time.perf_counter()
                value = self._operate(operate, state, bool(traced))
                took = time.perf_counter() - started
                if not reusable:
                    close(state)
                    state = None
                if value is None:
                    return
                if traced is not None:
                    self.trace_values.append((traced, value))
                    continue
                self.op_values.append(value)
                spent += took
                if spent + took <= self.seconds:
                    modes.append(None)
        finally:
            if state is not None:
                close(state)

    # -- answers -------------------------------------------------------
    def check(self, label: str, answer: dict[str, Any]) -> None:
        """Count one answer; compare it with the expected (or first) one."""
        self.attempted += 1
        want = self.answers.setdefault(label, answer) if self.expected is None else (
            self.expected.get(label)
        )
        if answer != want:
            self.failed += 1
            print(f"wrong answer for {label}: {answer} != {want}", file=sys.stderr)

    # -- report --------------------------------------------------------
    def report(self) -> dict[str, Any]:
        if self.recorder is None:
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics = {
                "run_s": _median(self.op_values),
                "setup_s": _median(self.setup_s),
                "peak_rss_mb": max(own, children) / 1024,  # Linux reports KiB
            }
            samples = {"ops": len(self.op_values), "setups": len(self.setup_s)}
        else:
            metrics = self._layer_metrics()
            samples = {"spans": len(self.recorder.spans)}
        if self.latencies:
            samples["jobs"] = len(self.latencies)
            tail = tail_percentile(self.latencies)
            if tail is not None:
                samples[f"job_p{tail[0]}_s"] = tail[1]
        checked = self.attempted > 0
        return {
            "correct": checked and self.failed == 0,
            "attempted": self.attempted if checked else 1,
            "failed": self.failed if checked else 1,
            "metrics": metrics,
            "samples": samples,
            "answers": self.answers,
        }

    def _layer_metrics(self) -> dict[str, float]:
        totals = self.recorder.totals()

        def get(name: str, field: str) -> float:
            return totals.get(name, {}).get(field, 0)

        values = dict(self.trace_values)
        overhead = values[True] / values[False] - 1 if len(values) == 2 else 0.0
        counts = self.counts
        hits = counts.get("incremental.hits", 0)
        lookups = hits + counts.get("incremental.misses", 0)
        return {
            "scan.s": get("scan", "inclusive_s"),
            "scan.calls": get("scan", "calls"),
            "scan.rows": get("scan", "amount"),
            "hierarchy.generalize_s": get("generalize", "self_s"),
            "groupby.s": get("groupby", "self_s"),
            "rollup.s": get("rollup", "self_s"),
            "rollup.calls": get("rollup", "calls"),
            "rollup.source_rows": get("rollup", "amount"),
            "merge.s": get("merge", "self_s"),
            "merge.calls": get("merge", "calls"),
            "merge.rows": get("merge", "amount"),
            "lattice.s": get("lattice", "self_s"),
            "lattice.candidates": get("lattice", "amount"),
            "search.self_s": get("search", "self_s"),
            "search.nodes_checked": counts.get("search.nodes_checked", 0),
            "search.table_scans": counts.get("search.table_scans", 0),
            "search.rollups": counts.get("search.rollups", 0),
            "parallel.wait_s": get("batch", "self_s"),
            "parallel.worker_busy_s": counts.get("parallel.worker_busy_s", 0.0),
            "incremental.append_s": get("append", "inclusive_s"),
            "incremental.hit_ratio": hits / lookups if lookups else 0.0,
            "datasets.build_s": _median(self.build_s),
            "service.submit_s": counts.get("service.submit_s", 0.0),
            "service.queue_s": counts.get("service.queue_s", 0.0),
            "service.launch_s": counts.get("service.launch_s", 0.0),
            "service.child_run_s": counts.get("service.child_run_s", 0.0),
            "service.send_lag_s": counts.get("service.send_lag_s", 0.0),
            "trace.overhead_ratio": overhead,
        }


def _median(values: list[float]) -> float:
    """The median, or 0.0 for a run that failed before taking a sample."""
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def row_order(num_rows: int, seed: int, bounds: list[int] | None = None) -> np.ndarray:
    """A seeded permutation of ``range(num_rows)`` that keeps each row
    inside its segment ``[bounds[i], bounds[i + 1])``."""
    rng = np.random.default_rng(seed)
    bounds = bounds or [0, num_rows]
    return np.concatenate(
        [low + rng.permutation(high - low) for low, high in zip(bounds, bounds[1:])]
    )


def shuffled(problem: PreparedTable, seed: int, bounds: list[int] | None = None) -> PreparedTable:
    """``problem`` with its rows permuted by :func:`row_order`."""
    qi = problem.quasi_identifier
    return PreparedTable(
        problem.table.take(row_order(problem.num_rows, seed, bounds)),
        {name: problem.hierarchy(name) for name in qi},
        qi,
    )


def shuffled_into_shm(problem: PreparedTable, seed: int) -> PreparedTable:
    """Like :func:`shuffled`, writing the permuted codes into shared memory."""
    qi = problem.quasi_identifier
    order = row_order(problem.num_rows, seed)
    store = SharedTableStore()
    try:
        for name in qi:
            target = store.allocate(name, len(order))
            np.take(problem.table.column(name).codes, order, out=target)
        return store.build_problem(
            {name: problem.table.column(name).values for name in qi},
            {name: problem.hierarchy(name) for name in qi},
            qi,
        )
    except BaseException:
        store.close()
        raise


def release(problem: PreparedTable) -> None:
    """Unlink the shared memory behind ``problem``, if it was built into it."""
    store = getattr(problem, "_shm_store", None)
    if store is not None:
        store.close()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _batch(
    run: Run,
    setup: Callable[[], PreparedTable],
    algorithm: Callable,
    execution: ExecutionConfig | None = None,
) -> None:
    """One algorithm call per operation on a problem built by ``setup``."""

    def operate(problem: PreparedTable) -> None:
        with run.span("search"):
            result = algorithm(problem, K, execution=execution)
        run.check("result", result_answer(result))
        stats = result.stats
        run.count("search.nodes_checked", stats.nodes_checked)
        run.count("search.table_scans", stats.table_scans)
        run.count("search.rollups", stats.rollups)
        busy = stats.metrics.get("worker.chunk_seconds")
        run.count("parallel.worker_busy_s", busy.sum if busy is not None else 0.0)

    run.drive(setup, operate, release)


def adults_basic(run: Run, *, data_seed: int = 7, rows: int = 45_222, qi: int = 9) -> None:
    """Basic Incognito on Adults, serial."""
    _batch(
        run,
        lambda: shuffled(run.clock(adults_problem, rows, qi_size=qi, seed=data_seed), run.seed),
        basic_incognito,
    )


def _landsend(run: Run, rows: int, qi: int, data_seed: int) -> Callable[[], PreparedTable]:
    return lambda: shuffled(
        run.clock(landsend_problem, rows, qi_size=qi, seed=data_seed), run.seed
    )


def landsend_basic(run: Run, *, data_seed: int = 11, rows: int = 200_000, qi: int = 8) -> None:
    """Basic Incognito on Lands End, serial."""
    _batch(run, _landsend(run, rows, qi, data_seed), basic_incognito)


def landsend_superroots(
    run: Run, *, data_seed: int = 11, rows: int = 200_000, qi: int = 7
) -> None:
    """Super-roots Incognito on Lands End, serial."""
    _batch(run, _landsend(run, rows, qi, data_seed), superroots_incognito)


def landsend_full_shards(
    run: Run, *, data_seed: int = 11, rows: int = FULL_ROWS, qi: int = 5, workers: int = 2
) -> None:
    """Basic Incognito on Lands End streamed into shared memory, ``shards`` mode."""

    def setup() -> PreparedTable:
        streamed = run.clock(landsend_problem_shm, rows, qi_size=qi, seed=data_seed)
        try:
            return shuffled_into_shm(streamed, run.seed)
        finally:
            release(streamed)

    _batch(run, setup, basic_incognito, ExecutionConfig(mode="shards", workers=workers))


def landsend_append(
    run: Run,
    *,
    data_seed: int = 11,
    rows: int = 200_000,
    qi: int = 7,
    base_rows: int = 100_000,
    appends: int = 5,
) -> None:
    """IncrementalSession (basic): a base version, then equal appends.

    Set-up builds the table and runs version 0; one operation appends
    and re-runs every later version.
    """
    step = (rows - base_rows) / appends
    bounds = [0, base_rows] + [base_rows + round(step * i) for i in range(1, appends + 1)]

    def setup() -> tuple[IncrementalSession, list]:
        problem = shuffled(
            run.clock(landsend_problem, rows, qi_size=qi, seed=data_seed), run.seed, bounds
        )
        names = problem.quasi_identifier
        hierarchies = {name: problem.hierarchy(name).source for name in names}
        segments = [
            problem.table.take(np.arange(low, high)) for low, high in zip(bounds, bounds[1:])
        ]
        session = IncrementalSession(
            PreparedTable(segments[0], hierarchies, names), K, algorithm="basic"
        )
        run.check("v0", result_answer(session.run()))
        return session, segments[1:]

    def operate(state: tuple[IncrementalSession, list]) -> None:
        session, deltas = state
        for version, delta in enumerate(deltas, 1):
            session.append(delta)
            with run.span("search"):
                result = session.run()
            run.check(f"v{version}", result_answer(result))
            stats = result.stats
            counters = stats.as_dict()
            run.count("search.nodes_checked", stats.nodes_checked)
            run.count("search.table_scans", stats.table_scans)
            run.count("search.rollups", stats.rollups)
            run.count("incremental.hits", counters.get("incremental.base_hits", 0))
            run.count("incremental.misses", counters.get("incremental.base_misses", 0))

    run.drive(setup, operate, reusable=False)


@dataclass
class _Server:
    process: subprocess.Popen
    client: ServiceClient
    data_dir: Path


def _start_server(data_dir: Path, jobs: int, runners: int) -> _Server:
    """``repro serve`` in a fresh data directory, reachable on return."""
    data_dir.mkdir(parents=True)
    with open(data_dir / "server.log", "wb") as log:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(data_dir),
                "--max-running", str(runners),
                "--max-queue", str(jobs),
                "--tenant-budget", str(jobs),
            ],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    try:
        info_path = data_dir / "server.json"
        deadline = time.monotonic() + 60
        while True:
            if process.poll() is not None:
                raise RuntimeError(f"server exited with {process.returncode}")
            if time.monotonic() > deadline:
                raise TimeoutError("server never published server.json")
            try:
                if json.loads(info_path.read_text()).get("pid") == process.pid:
                    break
            except (OSError, ValueError):
                pass
            time.sleep(0.02)
        client = ServiceClient.from_server_info(data_dir)
        client.wait_reachable(30, poll=0.02)
    except BaseException:
        _stop_server(process)
        raise
    return _Server(process, client, data_dir)


def _stop_server(process: subprocess.Popen) -> None:
    """Drain the server with SIGTERM and reap it (kill after 30 s)."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _child_run_seconds(job_dir: Path) -> float:
    """Duration of the job's ``service.job.run`` span in its trace file."""
    for line in (job_dir / "trace.jsonl").read_text().splitlines():
        span = json.loads(line)
        if span.get("name") == "service.job.run":
            return float(span["duration_seconds"])
    raise ValueError(f"no service.job.run span in {job_dir}")


def service_open(
    run: Run,
    *,
    data_seed: int = 7,
    rows: int = 20_000,
    jobs: int = 40,
    rate: float = 2.0,
    runners: int = 2,
) -> None:
    """A real ``repro serve`` fed an open loop of ``jobs`` jobs at ``rate`` jobs/s.

    A job's latency runs from its scheduled send time to the server's
    ``finished_at``; the operation's value is the median over its jobs.
    Forty jobs is the fewest for which p75 has ten samples beyond it, so
    the loop (20 s at 2 jobs/s) does not shrink to ``seconds``.
    """
    csv_path = run.scratch / "adults.csv"
    hierarchies = adults_hierarchies()
    spec = {
        "dataset": f"csv:{csv_path}",
        "k": K,
        "algorithm": "basic",
        "qi": list(SERVICE_QI),
        "hierarchies": {name: hierarchy_to_spec(hierarchies[name]) for name in SERVICE_QI},
        "tenant": "bench",
    }
    servers = itertools.count()

    def write_dataset() -> None:
        table = run.clock(adults_table, rows, seed=data_seed).project(SERVICE_QI)
        write_csv(table.take(row_order(rows, run.seed)), csv_path)

    def setup() -> _Server:
        write_dataset()
        return _start_server(run.scratch / f"service-{next(servers)}", jobs, runners)

    def close(server: _Server) -> None:
        _stop_server(server.process)
        shutil.rmtree(server.data_dir, ignore_errors=True)

    def operate(server: _Server) -> float:
        client = server.client
        sent: list[tuple[str, float]] = []
        lags: list[float] = []
        submits: list[float] = []
        start = time.time() + 0.05
        for index in range(jobs):
            due = start + index / rate
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            posted = time.time()
            status, document = client.submit(spec)
            submits.append(time.time() - posted)
            lags.append(posted - due)
            if status != 202:
                raise RuntimeError(f"submit refused with {status}: {document}")
            sent.append((document["id"], due))
        pending = {job_id for job_id, _ in sent}
        deadline = time.monotonic() + 120
        while pending:
            if time.monotonic() > deadline:
                raise TimeoutError(f"{len(pending)} job(s) never finished")
            time.sleep(0.1)
            pending -= {job["id"] for job in client.jobs() if job["state"] in TERMINAL}
        latencies, queues, launches, children = [], [], [], []
        for job_id, due in sent:
            _, record = client.job(job_id)
            _, payload = client.result(job_id)
            if record["state"] != "succeeded":
                run.attempted += 1
                run.failed += 1
                print(f"job {job_id} {record['state']}: {record['cause']}", file=sys.stderr)
                continue
            run.check("job", answer_of(payload["anonymous_nodes"], payload["nodes_checked"]))
            child = _child_run_seconds(server.data_dir / "jobs" / job_id)
            latencies.append(record["finished_at"] - due)
            queues.append(record["started_at"] - record["submitted_at"])
            children.append(child)
            launches.append(record["finished_at"] - record["started_at"] - child)
        run.latencies.extend(latencies)
        run.count("service.submit_s", statistics.median(submits))
        run.count("service.queue_s", statistics.median(queues))
        run.count("service.launch_s", statistics.median(launches))
        run.count("service.child_run_s", statistics.median(children))
        run.count("service.send_lag_s", max(lags))
        return statistics.median(latencies)

    # The batch answer every job must match: the same CSV, read in-process.
    write_dataset()
    batch = PreparedTable(
        read_csv(csv_path), hierarchies_from_spec(spec["hierarchies"]), SERVICE_QI
    )
    run.check("job", result_answer(basic_incognito(batch, K)))
    run.drive(setup, operate, close)


#: Why each workload exists is recorded in BENCHMARK.json.  Each
#: function's ``data_seed`` default is its generator's own seed, at which
#: node counts match the committed figures in ``results/``.
WORKLOADS: dict[str, Callable[..., None]] = {
    "adults-q9": adults_basic,
    "landsend-q8": landsend_basic,
    "landsend-superroots-q7": landsend_superroots,
    "landsend-append": landsend_append,
    "landsend-full-shards": landsend_full_shards,
    "service-open": service_open,
}


def main(argv: list[str]) -> int:
    """Run one workload from a JSON parameter object; print its report."""
    params = json.loads(argv[1])
    function = WORKLOADS[params["workload"]]
    data_seed = params.get("data_seed")
    if data_seed is None:
        data_seed = inspect.signature(function).parameters["data_seed"].default
    expected = None
    if not params.get("record"):
        recorded = json.loads(EXPECTED_PATH.read_text()).get(params["workload"], {})
        expected = recorded.get(str(data_seed))
        if expected is None:
            print(f"no expected answers for data seed {data_seed}", file=sys.stderr)
            return 2
    scratch = Path(params["scratch"])
    run = Run(
        seed=int(params["seed"]),
        seconds=float(params["seconds"]),
        scratch=scratch,
        trace=bool(params.get("trace")),
        expected=expected,
    )
    try:
        function(run, data_seed=data_seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if run.recorder is not None and params.get("spans"):
        run.recorder.write(Path(params["spans"]))
    print(json.dumps({**run.report(), "data_seed": data_seed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
