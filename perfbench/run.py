"""Run the paper-scale benchmark.

    python3 perfbench/run.py [--workload NAME ...] [--seed N ...]
        [--seconds S] [--trace 0|1] [--data-seed N] [--out FILE]
        [--record-expected]

Every (workload, seed) pair runs in its own fresh process
(``perfbench/workloads.py``) with the repository's ``src`` on its path.
For each pair this prints every metric by name with its unit, then one
JSON line ``{"correct", "attempted", "failed", "metrics"}``; the last
line of the output is that object for the last pair.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  The exit code is non-zero if any answer was wrong or any
run failed.

``--out FILE`` appends one JSON record per pair (with workload, seed and
the sample counts) for ``agree.py``.  ``--record-expected`` stores the
answers of the runs in ``expected.json`` instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: A run must end within 180 s, its children with it.
CHILD_TIMEOUT_S = 170


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool,
    data_seed: int | None = None, record: bool = False,
) -> dict | None:
    """Run one (workload, seed) in a fresh process; its report, or None.

    The child runs in its own session so that, whatever happens to it,
    every process it left behind is killed before this returns.
    """
    scratch = OUT / "tmp" / f"{workload}-{seed}-{os.getpid()}"
    params = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "data_seed": data_seed, "record": record,
        "scratch": str(scratch),
        "spans": str(OUT / "spans" / f"{workload}-seed{seed}.jsonl"),
    }
    paths = [str(ROOT / "src"), str(HERE), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(path for path in paths if path),
        TMPDIR=str(OUT / "tmp"),
        REPRO_SHM_MANIFEST_DIR=str(OUT / "shm-manifest"),
    )
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    child = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(params)],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed}: timed out", file=sys.stderr)
        stdout = b""
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = stdout.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: failed (exit {child.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        # Never fall back to an installed copy: measure this checkout.
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", nargs="+", type=int, default=[0],
                        help="row-order seeds; the answer is the same for all")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None,
                        help="generator seed (default: each dataset's own)")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    units = {
        metric["name"]: metric["unit"]
        for metric in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    recorded: dict = {}
    ok = True
    for workload in args.workload:
        for seed in args.seed:
            report = run_workload(
                workload, seed, args.seconds, bool(args.trace),
                args.data_seed, args.record_expected,
            )
            if report is None:
                ok = False
                continue
            ok = ok and report["correct"]
            metrics = {
                name: {"value": report["metrics"][name], "unit": unit}
                for name, unit in units.items()
            }
            print(f"{workload} seed {seed} ({report['attempted']} checked, "
                  f"{report['failed']} failed; samples {report['samples']}):")
            for name, metric in metrics.items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
            summary = {key: report[key] for key in ("correct", "attempted", "failed")}
            summary["metrics"] = metrics
            if args.out is not None:
                record = {
                    "workload": workload, "seed": seed,
                    "data_seed": report["data_seed"], "trace": args.trace,
                    **summary, "samples": report["samples"],
                }
                args.out.parent.mkdir(parents=True, exist_ok=True)
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
            if args.record_expected:
                recorded.setdefault(workload, {})[str(report["data_seed"])] = (
                    report["answers"]
                )
            print(json.dumps(summary), flush=True)
    if args.record_expected and ok:
        path = HERE / "expected.json"
        expected = json.loads(path.read_text()) if path.exists() else {}
        for workload, by_seed in recorded.items():
            expected.setdefault(workload, {}).update(by_seed)
        path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
