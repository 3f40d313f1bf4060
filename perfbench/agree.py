"""Check that two sets of benchmark runs agree within the benchmark's bounds.

    python3 perfbench/agree.py A B

``A`` and ``B`` are set files: JSON lines as ``run.py --out`` writes them,
or ``FILE.json#NAME`` for one named set of a results document such as
``results/seed.json``.  For every (metric, workload) pair this prints
both sets' medians, quartiles and spread (the distance between the
quartiles over the median).  An end-to-end pair agrees when each set's
spread is within the metric's bound (``setup_s`` is exempt) and neither
median is worse than the other by more than the bound.  Per-layer pairs
have no bound and are only printed.  The exit code is 1 if any pair
disagrees or any run answered wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(spec: str) -> list[dict]:
    """The run records of one set (see the module docstring)."""
    path, _, name = spec.partition("#")
    text = Path(path).read_text()
    if name:
        return json.loads(text)["sets"][name]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and spread."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0
    change = (other - base) / base
    return change if better == "lower" else -change


def values_by_pair(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    pairs: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for metric, entry in record["metrics"].items():
            pairs.setdefault((metric, record["workload"]), []).append(entry["value"])
    return pairs


def compare(first: list[dict], second: list[dict], benchmark: dict) -> list[dict]:
    """One row per (metric, workload) pair present in both sets."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    a, b = values_by_pair(first), values_by_pair(second)
    rows = []
    for metric, workload in sorted(set(a) & set(b), key=lambda pair: (pair[1], pair[0])):
        spec = metrics.get(metric)
        if spec is None:
            continue
        sa, sb = summarize(a[metric, workload]), summarize(b[metric, workload])
        row = {"metric": metric, "workload": workload, "a": sa, "b": sb,
               "bound": spec.get("bound"), "agree": None}
        if row["bound"] is not None:
            bound = row["bound"]
            spreads_ok = metric == "setup_s" or max(sa["spread"], sb["spread"]) <= bound
            medians_ok = max(
                worse_by(sa["median"], sb["median"], spec["better"]),
                worse_by(sb["median"], sa["median"], spec["better"]),
            ) <= bound
            row["agree"] = spreads_ok and medians_ok
        rows.append(row)
    return rows


def failures(records: list[dict]) -> int:
    return sum(1 for record in records if not record["correct"] or record["failed"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", help="set A")
    parser.add_argument("second", help="set B")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second = load_set(args.first), load_set(args.second)
    rows = compare(first, second, benchmark)

    def cell(s: dict) -> str:
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] ±{s['spread']:.1%}"

    print(f"{'workload':24} {'metric':24} {'n':>5}  {'A median [q1, q3] spread':36} "
          f"{'B median [q1, q3] spread':36} {'bound':>6}  verdict")
    for row in rows:
        verdict = {None: "-", True: "agree", False: "DISAGREE"}[row["agree"]]
        bound = "" if row["bound"] is None else f"{row['bound']:.0%}"
        print(f"{row['workload']:24} {row['metric']:24} "
              f"{row['a']['n']:>2}/{row['b']['n']:<2}  {cell(row['a']):36} "
              f"{cell(row['b']):36} {bound:>6}  {verdict}")
    bad = failures(first) + failures(second)
    if bad:
        print(f"{bad} run(s) answered wrong or failed")
    disagreeing = sum(1 for row in rows if row["agree"] is False)
    print(f"{disagreeing} disagreeing pair(s) of "
          f"{sum(1 for row in rows if row['agree'] is not None)} bounded")
    return 1 if disagreeing or bad else 0


if __name__ == "__main__":
    sys.exit(main())
