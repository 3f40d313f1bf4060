"""Command-line interface: anonymize, check, and attack CSV files.

Subcommands
-----------

``anonymize``
    K-anonymize a CSV with a JSON hierarchy spec::

        python -m repro anonymize people.csv --hierarchies spec.json \\
            --k 5 --algorithm basic --output released.csv

    The spec file maps quasi-identifier attribute names to hierarchy
    specs (see :mod:`repro.hierarchy.spec` for the format).

``check``
    Verify a CSV satisfies k-anonymity over a quasi-identifier::

        python -m repro check released.csv --qi age,sex,zip --k 5

``attack``
    Run the Figure 1 joining attack of an external CSV against a
    released CSV::

        python -m repro attack voters.csv released.csv --qi birth,sex,zip

``model``
    Anonymize with any Section 5 taxonomy model::

        python -m repro model mondrian people.csv --qi age,sex,zip --k 5 \\
            --output released.csv

    Hierarchy-based models need ``--hierarchies``; partition-based models
    (mondrian, partition-1d, k-optimize) order the raw domains and need
    none (absent spec entries default to one-step suppression).

The run flags go before the subcommand (``python -m repro --workers 4
--trace t.jsonl anonymize ...``).  They are defined in
:mod:`repro.parallel.cli` and shared with the figure/table benchmarks'
own entry point, ``python -m repro.bench.run_figures``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro import obs
from repro.attack.joining import joining_attack
from repro.core import ALGORITHMS, CHECKPOINTED_ALGORITHMS
from repro.core.anonymity import check_k_anonymity
from repro.core.problem import PreparedTable
from repro.parallel.cli import add_run_arguments, run_region
from repro.resilience import CheckpointStore, atomic_write_text
from repro.hierarchy.spec import hierarchies_from_spec
from repro.relational.csvio import read_csv, write_csv
from repro.relational.groupby import group_by_count


def _parse_weights(text: str) -> dict[str, float]:
    """Parse ``attr=weight,attr=weight`` pairs."""
    weights = {}
    for pair in text.split(","):
        if not pair:
            continue
        name, _, value = pair.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(
                f"weights must be attr=number pairs, got {pair!r}"
            )
        weights[name] = float(value)
    return weights


def _comma_list(text: str) -> list[str]:
    return [item for item in text.split(",") if item]


def cmd_anonymize(args: argparse.Namespace) -> int:
    table = read_csv(args.input)
    spec = json.loads(Path(args.hierarchies).read_text())
    hierarchies = hierarchies_from_spec(spec)
    qi = args.qi if args.qi else list(hierarchies)
    problem = PreparedTable(table, hierarchies, qi)

    if args.append or args.base_checkpoint:
        # Incremental path: anonymize the base plus every appended delta,
        # reusing frequency sets remembered (and, with --base-checkpoint,
        # persisted with a version-fingerprint chain) from earlier runs.
        from repro.incremental import IncrementalSession

        session = IncrementalSession(
            problem,
            args.k,
            algorithm=args.algorithm,
            max_suppression=args.max_suppression,
            checkpoint_dir=args.base_checkpoint,
        )
        for path in args.append or []:
            delta = read_csv(path)
            session.append(delta)
            print(
                f"appended {delta.num_rows} row(s) from {path} "
                f"(dataset version {session.version})",
                file=sys.stderr,
            )
        result = session.run(resume=args.resume)
        problem = session.dataset.problem
    else:
        algorithm = ALGORITHMS[args.algorithm]
        extra = {}
        if args.checkpoint:
            extra["checkpoint"] = CheckpointStore(args.checkpoint)
            extra["resume"] = args.resume
        result = algorithm(
            problem, args.k, max_suppression=args.max_suppression, **extra
        )
    # The run's stats-surface histograms (latency.scan_seconds and
    # friends) feed the tracer too, so --metrics-out sees every instrument.
    obs.get_tracer().merge_metrics(result.stats.metrics)
    if not result.found:
        print(
            f"no {args.k}-anonymous full-domain generalization exists "
            f"(suppression budget {args.max_suppression})",
            file=sys.stderr,
        )
        return 1

    print(result.describe())
    if args.show_all:
        for node in result.anonymous_nodes:
            print(f"  {node.label()}  (height {node.height})")

    if args.weights:
        node = result.weighted_minimal(args.weights)
    else:
        node = result.best_node()
    view = result.apply(problem, node)
    print(f"selected generalization: {node.label()}")
    if view.suppressed_rows:
        print(f"suppressed {view.suppressed_rows} outlier row(s)")

    if args.output:
        write_csv(view.table, args.output)
        print(f"wrote {view.table.num_rows} rows to {args.output}")
    else:
        print(view.table.pretty(limit=args.preview))
    return 0


def _model_registry() -> dict[str, Callable]:
    from repro.models import (
        AnnealingSubtreeModel,
        AttributeSuppressionModel,
        CellGeneralizationModel,
        CellSuppressionModel,
        FullDomainModel,
        GeneticSubtreeModel,
        KOptimizeModel,
        MondrianModel,
        MultiDimSubgraphModel,
        Partition1DModel,
        SubtreeModel,
        UnrestrictedModel,
        UnrestrictedMultiDimModel,
    )

    return {
        "full-domain": FullDomainModel,
        "attribute-suppression": AttributeSuppressionModel,
        "subtree": SubtreeModel,
        "genetic": GeneticSubtreeModel,
        "annealing": AnnealingSubtreeModel,
        "unrestricted": UnrestrictedModel,
        "partition-1d": Partition1DModel,
        "k-optimize": KOptimizeModel,
        "multidim-subgraph": MultiDimSubgraphModel,
        "multidim-unrestricted": UnrestrictedMultiDimModel,
        "mondrian": MondrianModel,
        "cell-suppression": CellSuppressionModel,
        "cell-generalization": CellGeneralizationModel,
    }


def cmd_model(args: argparse.Namespace) -> int:
    from repro.hierarchy import SuppressionHierarchy
    from repro.metrics import average_class_size, discernibility

    table = read_csv(args.input)
    if args.hierarchies:
        spec = json.loads(Path(args.hierarchies).read_text())
        hierarchies = hierarchies_from_spec(spec)
    else:
        hierarchies = {}
    qi = args.qi if args.qi else list(hierarchies)
    if not qi:
        print("--qi (or a hierarchy spec) is required", file=sys.stderr)
        return 2
    for name in qi:  # partition models don't need real hierarchies
        hierarchies.setdefault(name, SuppressionHierarchy())
    problem = PreparedTable(table, hierarchies, qi)

    model = _model_registry()[args.model]()
    result = model.anonymize(problem, args.k)
    print(
        f"{result.model}: C_DM={discernibility(result.table, qi)} "
        f"C_AVG={average_class_size(result.table, qi, args.k):.2f}"
        + (
            f" suppressed_rows={result.suppressed_rows}"
            if result.suppressed_rows
            else ""
        )
    )
    if args.output:
        write_csv(result.table, args.output)
        print(f"wrote {result.table.num_rows} rows to {args.output}")
    else:
        print(result.table.pretty(limit=args.preview))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    table = read_csv(args.input)
    result = group_by_count(table, args.qi)
    anonymous = check_k_anonymity(table, args.qi, args.k)
    smallest = result.min_count()
    print(
        f"{args.input}: {table.num_rows} rows, {result.num_groups} "
        f"equivalence classes over {args.qi}; smallest class {smallest}"
    )
    print(f"{args.k}-anonymous: {'YES' if anonymous else 'NO'}")
    if not anonymous:
        exposed = result.counts < args.k
        print(
            f"{int(result.counts[exposed].sum())} row(s) live in classes "
            f"smaller than {args.k}"
        )
    return 0 if anonymous else 1


def cmd_attack(args: argparse.Namespace) -> int:
    external = read_csv(args.external)
    released = read_csv(args.released)
    report = joining_attack(external, released, args.qi)
    print(report.describe())
    return 0 if report.uniquely_linked == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_server

    print(
        f"serving anonymization jobs from {args.data_dir} "
        f"on {args.host}:{args.port or '<ephemeral>'} "
        f"(SIGTERM drains gracefully)"
    )
    run_server(
        args.data_dir,
        host=args.host,
        port=args.port,
        max_running=args.max_running,
        max_queue=args.max_queue,
        tenant_budget=args.tenant_budget,
        heartbeat_timeout=args.heartbeat_timeout,
        max_attempts=args.max_attempts,
        fault_spec=args.inject_job_faults,
        slo_p99_seconds=args.slo_p99_seconds,
        slo_error_rate=args.slo_error_rate,
        slo_queue_depth=args.slo_queue_depth,
        sample_interval=args.sample_interval,
    )
    return 0


def cmd_trace_tool(args: argparse.Namespace) -> int:
    """``repro trace stitch``: merge a job's per-process trace files."""
    from repro.obs.stitch import stitch_directory, validate_chrome

    chrome, summary = stitch_directory(args.job_dir)
    validate_chrome(chrome)
    rendered = json.dumps(chrome) + "\n"
    if args.output:
        atomic_write_text(Path(args.output), rendered)
    else:
        sys.stdout.write(rendered)
    print(
        f"stitched {summary['spans']} span(s) from "
        f"{len(summary['processes'])} process(es); "
        f"trace ids: {', '.join(summary['trace_ids']) or '<none>'}; "
        f"{summary['resolved_links']}/{summary['remote_links']} "
        f"cross-process link(s) resolved"
        + (f"; wrote {args.output}" if args.output else ""),
        file=sys.stderr,
    )
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from repro.service.status import render_status_from_info

    print(render_status_from_info(args.server_info, timeout=args.timeout))
    return 0


def cmd_gc_shm(args: argparse.Namespace) -> int:
    from repro.shard.manifest import manifest_dir, sweep_orphans

    report = sweep_orphans()
    print(f"swept {manifest_dir()}:")
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Full-domain k-anonymization (Incognito reproduction)",
    )
    add_run_arguments(parser)
    commands = parser.add_subparsers(dest="command", required=True)

    anonymize = commands.add_parser(
        "anonymize", help="k-anonymize a CSV file"
    )
    anonymize.add_argument("input", help="input CSV (with header row)")
    anonymize.add_argument(
        "--hierarchies", required=True,
        help="JSON file mapping QI attributes to hierarchy specs",
    )
    anonymize.add_argument("--k", type=int, required=True)
    anonymize.add_argument(
        "--qi", type=_comma_list, default=None,
        help="comma-separated QI attributes (default: all spec keys)",
    )
    anonymize.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="basic"
    )
    anonymize.add_argument("--max-suppression", type=int, default=0)
    anonymize.add_argument(
        "--weights", type=_parse_weights, default=None,
        help="minimality weights, e.g. age=5,sex=0.1",
    )
    anonymize.add_argument("--output", default=None, help="output CSV path")
    anonymize.add_argument("--preview", type=int, default=10)
    anonymize.add_argument(
        "--show-all", action="store_true",
        help="list every k-anonymous generalization found",
    )
    anonymize.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="persist search progress to PATH after every completed "
        "level/probe (atomic writes), enabling --resume after a kill",
    )
    anonymize.add_argument(
        "--resume", action="store_true",
        help="resume from a matching --checkpoint file instead of "
        "re-searching completed levels (with --base-checkpoint, resumes "
        "the incremental run's own checkpoint)",
    )
    anonymize.add_argument(
        "--append", action="append", default=None, metavar="CSV",
        help="append this delta CSV (same columns as the input) before "
        "anonymizing; repeatable, applied in order — the run then scans "
        "only rows not covered by remembered frequency sets",
    )
    anonymize.add_argument(
        "--base-checkpoint", default=None, metavar="DIR",
        help="directory holding the incremental session state (per-node "
        "frequency sets + the dataset's version-fingerprint chain); "
        "reused across invocations so re-anonymizing after --append "
        "touches only the new rows",
    )
    anonymize.set_defaults(run=cmd_anonymize)

    check = commands.add_parser("check", help="verify k-anonymity of a CSV")
    check.add_argument("input")
    check.add_argument("--qi", type=_comma_list, required=True)
    check.add_argument("--k", type=int, required=True)
    check.set_defaults(run=cmd_check)

    attack = commands.add_parser(
        "attack", help="joining attack: external CSV vs released CSV"
    )
    attack.add_argument("external")
    attack.add_argument("released")
    attack.add_argument("--qi", type=_comma_list, required=True)
    attack.set_defaults(run=cmd_attack)

    model = commands.add_parser(
        "model", help="anonymize with a Section 5 taxonomy model"
    )
    model.add_argument("model", choices=sorted(_model_registry()))
    model.add_argument("input")
    model.add_argument("--k", type=int, required=True)
    model.add_argument("--qi", type=_comma_list, default=None)
    model.add_argument(
        "--hierarchies", default=None,
        help="JSON hierarchy spec (needed by hierarchy-based models)",
    )
    model.add_argument("--output", default=None)
    model.add_argument("--preview", type=int, default=10)
    model.set_defaults(run=cmd_model)

    serve = commands.add_parser(
        "serve",
        help="run the anonymization job server (asyncio HTTP/JSON; "
        "crash-safe WAL, deadlines, admission control, graceful drain)",
    )
    serve.add_argument(
        "data_dir",
        help="service state directory (WAL, snapshots, per-job dirs); "
        "jobs found here are recovered and resumed on start",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = OS-assigned; the bound port is "
        "recorded in <data_dir>/server.json)",
    )
    serve.add_argument(
        "--max-running", type=int, default=2,
        help="concurrent job subprocesses (default: 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16,
        help="queued-job bound; submissions beyond it get HTTP 429 "
        "(default: 16)",
    )
    serve.add_argument(
        "--tenant-budget", type=int, default=4,
        help="active (queued+running) jobs allowed per tenant before "
        "429 (default: 4)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="execution attempts per job before a crash/hang becomes a "
        "terminal failure (default: 3)",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="a runner whose heartbeat is staler than this is killed and "
        "retried with backoff (default: 5s)",
    )
    serve.add_argument(
        "--inject-job-faults", default=None, metavar="SPEC",
        help="seeded job-level fault injection for chaos testing, e.g. "
        "'crash=0.3,timeout=0.2,seed=7' (crash kills the runner after "
        "its first checkpoint; timeout hangs it until the watchdog fires)",
    )
    serve.add_argument(
        "--slo-p99-seconds", type=float, default=None, metavar="SECONDS",
        help="SLO: rolling p99 job latency above this degrades /healthz "
        "to 503 (default: no latency SLO)",
    )
    serve.add_argument(
        "--slo-error-rate", type=float, default=None, metavar="FRACTION",
        help="SLO: job failure fraction over the rolling window above "
        "this degrades /healthz to 503 (default: no error-rate SLO)",
    )
    serve.add_argument(
        "--slo-queue-depth", type=int, default=None, metavar="N",
        help="SLO: queue depth above this degrades /healthz to 503 "
        "(default: no queue-depth SLO)",
    )
    serve.add_argument(
        "--sample-interval", type=float, default=2.0, metavar="SECONDS",
        help="telemetry sampler tick: how often the server snapshots its "
        "metrics into the /metrics/history ring and re-evaluates SLO "
        "windows (default: 2.0)",
    )
    serve.set_defaults(run=cmd_serve)

    trace_tool = commands.add_parser(
        "trace",
        help="work with recorded trace files (trace stitch: merge one "
        "job's per-process JSON-lines traces into a single validated "
        "Chrome trace with cross-process flow links)",
    )
    trace_tool.add_argument(
        "action", choices=("stitch",),
        help="stitch: merge trace*.jsonl files under JOB_DIR",
    )
    trace_tool.add_argument(
        "job_dir",
        help="job directory (or any directory searched recursively for "
        "trace*.jsonl files, e.g. a whole service data dir)",
    )
    trace_tool.add_argument(
        "--output", "-o", default=None, metavar="FILE",
        help="write the Chrome trace JSON here (default: stdout)",
    )
    trace_tool.set_defaults(run=cmd_trace_tool)

    status = commands.add_parser(
        "status",
        help="live one-screen operational view of a running server "
        "(active jobs, tenant budgets, SLO state, top latency metrics)",
    )
    status.add_argument(
        "server_info",
        help="path to the server's server.json (or its data directory)",
    )
    status.add_argument(
        "--timeout", type=float, default=5.0, metavar="SECONDS",
        help="HTTP timeout per request (default: 5.0)",
    )
    status.set_defaults(run=cmd_status)

    gc_shm = commands.add_parser(
        "gc-shm",
        help="sweep shared-memory segments orphaned by SIGKILLed owners "
        "(reads the on-disk segment manifest; safe while servers run)",
    )
    gc_shm.set_defaults(run=cmd_gc_shm)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "resume", False) and not (
        getattr(args, "checkpoint", None)
        or getattr(args, "base_checkpoint", None)
    ):
        parser.error(
            "--resume requires --checkpoint PATH or --base-checkpoint DIR"
        )
    if (
        getattr(args, "checkpoint", None)
        and args.algorithm not in CHECKPOINTED_ALGORITHMS
    ):
        parser.error(
            f"--checkpoint is not supported by --algorithm {args.algorithm} "
            "(it has no level-synchronous structure to checkpoint)"
        )
    incremental = getattr(args, "append", None) or getattr(
        args, "base_checkpoint", None
    )
    if incremental:
        from repro.incremental.session import ALGORITHMS as INCREMENTAL

        if args.algorithm not in INCREMENTAL:
            parser.error(
                "incremental runs (--append/--base-checkpoint) support "
                f"--algorithm {', '.join(INCREMENTAL)}"
            )
        if getattr(args, "checkpoint", None):
            parser.error(
                "--checkpoint conflicts with incremental runs; the "
                "--base-checkpoint directory manages its own run checkpoint"
            )

    with run_region(parser, args):
        return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
