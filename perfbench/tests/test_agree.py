"""The agreement rule between two sets of runs."""

from __future__ import annotations

import json

import agree

BENCHMARK = {
    "end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "scan.s", "unit": "s", "better": "lower"}],
}


def records(run_s, setup_s=None, workload="w"):
    setup_s = setup_s or [1.0] * len(run_s)
    return [
        {"workload": workload, "seed": seed, "correct": True, "attempted": 1, "failed": 0,
         "metrics": {"run_s": {"value": a, "unit": "s"}, "setup_s": {"value": b, "unit": "s"}}}
        for seed, (a, b) in enumerate(zip(run_s, setup_s))
    ]


def verdicts(first, second):
    return {row["metric"]: row["agree"] for row in agree.compare(first, second, BENCHMARK)}


def test_equal_sets_agree():
    runs = records([10.0, 10.1, 9.9, 10.05, 9.95])
    assert verdicts(runs, runs) == {"run_s": True, "setup_s": True}


def test_a_median_worse_by_more_than_the_bound_disagrees():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert not verdicts(records(base), records([x * 1.2 for x in base]))["run_s"]
    assert not verdicts(records([x * 1.2 for x in base]), records(base))["run_s"]


def test_spread_beyond_the_bound_disagrees_except_for_setup():
    wide = [8.0, 12.0, 8.0, 12.0, 10.0]
    assert verdicts(records(wide), records(wide)) == {"run_s": False, "setup_s": True}
    result = verdicts(records([10.0] * 5, setup_s=wide), records([10.0] * 5, setup_s=wide))
    assert result == {"run_s": True, "setup_s": True}


def test_named_sets_load_from_a_results_document(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"sets": {"a": records([1.0])}}))
    assert agree.load_set(f"{path}#a") == records([1.0])
