"""Each workload at toy sizes, checked against a brute-force oracle.

The oracle shares nothing with the program's scan kernels: it generalizes
raw values through the abstract hierarchies one row at a time and counts
with a ``Counter`` over every node of the full lattice.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

import workloads
from repro.datasets.adults import ADULTS_QI, adults_hierarchies, adults_table
from repro.datasets.landsend import (
    LANDSEND_QI,
    landsend_hierarchies,
    landsend_problem_shm,
    landsend_table,
)


def oracle(columns: dict[str, list], hierarchies: dict, qi: tuple[str, ...]) -> dict:
    """Solution count and label digest of every k-anonymous full-QI node."""
    rows = list(zip(*(columns[name] for name in qi)))
    labels = []
    for levels in itertools.product(*(range(hierarchies[n].height + 1) for n in qi)):
        groups = Counter(
            tuple(hierarchies[n].generalize(value, level)
                  for n, value, level in zip(qi, row, levels))
            for row in rows
        )
        if min(groups.values()) >= workloads.K:
            labels.append(", ".join(f"{n}={level}" for n, level in zip(qi, levels)))
    answer = workloads.answer_of(labels, 0)
    del answer["nodes_checked"]
    return answer


def without_nodes_checked(answer: dict) -> dict:
    return {key: value for key, value in answer.items() if key != "nodes_checked"}


def columns_of(table) -> dict[str, list]:
    return {name: table.column(name).to_list() for name in table.schema.names}


def recorded(run: workloads.Run) -> dict:
    report = run.report()
    assert report["correct"], report
    return report["answers"]


@pytest.fixture
def run(tmp_path):
    return workloads.Run(seed=5, seconds=0, scratch=tmp_path)


def test_adults_basic(run):
    workloads.adults_basic(run, rows=400, qi=3)
    want = oracle(columns_of(adults_table(400, seed=7)), adults_hierarchies(), ADULTS_QI[:3])
    assert without_nodes_checked(recorded(run)["result"]) == want


@pytest.mark.parametrize("function", [workloads.landsend_basic, workloads.landsend_superroots])
def test_landsend_in_memory(run, function):
    function(run, rows=600, qi=3)
    want = oracle(columns_of(landsend_table(600, seed=11)), landsend_hierarchies(), LANDSEND_QI[:3])
    assert without_nodes_checked(recorded(run)["result"]) == want


def test_landsend_full_shards(run):
    workloads.landsend_full_shards(run, rows=3_000, qi=3)
    problem = landsend_problem_shm(3_000, qi_size=3, seed=11)
    try:
        columns = columns_of(problem.table)
    finally:
        workloads.release(problem)
    want = oracle(columns, landsend_hierarchies(), LANDSEND_QI[:3])
    assert without_nodes_checked(recorded(run)["result"]) == want


def test_landsend_append_every_version(run):
    workloads.landsend_append(run, rows=900, qi=3, base_rows=500, appends=2)
    columns = columns_of(landsend_table(900, seed=11))
    answers = recorded(run)
    for version, stop in enumerate((500, 700, 900)):
        prefix = {name: values[:stop] for name, values in columns.items()}
        want = oracle(prefix, landsend_hierarchies(), LANDSEND_QI[:3])
        assert without_nodes_checked(answers[f"v{version}"]) == want


def test_service_open_jobs_match_the_oracle(run):
    workloads.service_open(run, rows=300, jobs=4, rate=4.0)
    qi = workloads.SERVICE_QI
    table = adults_table(300, seed=7)
    want = oracle(columns_of(table), adults_hierarchies(), qi)
    assert without_nodes_checked(recorded(run)["job"]) == want
    assert run.report()["attempted"] == 1 + 4  # the batch answer and every job


def test_a_wrong_answer_fails_the_run(tmp_path):
    wrong = {"result": {"labels_sha256": "0" * 64, "nodes_checked": 0, "solutions": 0}}
    run = workloads.Run(seed=5, seconds=0, scratch=tmp_path, expected=wrong)
    workloads.adults_basic(run, rows=400, qi=3)
    report = run.report()
    assert not report["correct"]
    assert report["failed"] == report["attempted"] == 1


def test_row_order_keeps_rows_inside_their_segments():
    order = workloads.row_order(10, seed=3, bounds=[0, 4, 7, 10])
    assert sorted(order[:4]) == [0, 1, 2, 3]
    assert sorted(order[4:7]) == [4, 5, 6]
    assert sorted(order[7:]) == [7, 8, 9]
    assert list(order) != list(range(10))


@pytest.mark.parametrize(
    "count, expected",
    [(10, None), (11, (9, 0)), (20, (50, 9)), (40, (75, 29)), (100, (90, 89)),
     (1000, (99, 989))],
)
def test_tail_percentile_leaves_at_least_ten_samples_beyond(count, expected):
    assert workloads.tail_percentile([float(i) for i in range(count)]) == expected
