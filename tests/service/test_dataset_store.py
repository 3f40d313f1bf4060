"""The service's dataset store: one encoded ``csv:`` table per file content.

A job runner loads ``csv:`` datasets through
:class:`repro.service.connectors.DatasetStore`; the inline oracle parses
with plain :func:`repro.relational.csvio.read_csv`.  Every load through
the store, hit or miss, must give that oracle's table exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import read_json_lines
from repro.relational.csvio import read_csv
from repro.service import connectors, runner
from repro.service.connectors import DatasetStore
from repro.service.jobs import JobSpec
from repro.service.manager import JobManager
from tests.relational.test_csvio import ORACLE_CASES
from tests.service.conftest import job_payload, write_dataset_csv

#: File bytes read as strings; every case has the header ``a,b``.
CASES = {name: data for name, (data, _) in ORACLE_CASES.items()}
CASES.update(
    {
        # "x\x00" and "x" are two values: a numpy string array would merge them.
        "trailing-nul": b"a,b\nx\x00,y\nx,y\nx\x00,\x00\n",
        "non-ascii": "a,b\nZürich,東京\nMünchen,東京\nZürich,ü\n".encode(),
        "header-only": b"a,b\n",
    }
)


def assert_same_table(table, expected) -> None:
    assert table.schema == expected.schema
    assert table.num_rows == expected.num_rows
    for column, oracle in zip(table.columns(), expected.columns(), strict=True):
        assert column.codes.dtype == oracle.codes.dtype
        assert column.codes.tolist() == oracle.codes.tolist()
        assert column.values == oracle.values
        assert [type(value) for value in column.values] == [
            type(value) for value in oracle.values
        ]


def entries(store: DatasetStore) -> list[str]:
    return sorted(path.name for path in store.root.iterdir())


def csv_file(tmp_path: Path, data: bytes) -> Path:
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("case", sorted(CASES))
def test_miss_then_hit_match_read_csv(tmp_path, case):
    path = csv_file(tmp_path, CASES[case])
    store = DatasetStore(tmp_path / "datasets")
    expected = read_csv(path)
    for outcome in ("miss", "hit"):
        assert_same_table(store.read_csv(path), expected)
        assert store.outcome == outcome
    assert len(entries(store)) == 1


@pytest.mark.parametrize(
    "data", [b"", b"a,b\nx,y\nx,y,z\n"], ids=["empty", "ragged"]
)
def test_parse_errors_keep_their_messages(tmp_path, data):
    path = csv_file(tmp_path, data)
    store = DatasetStore(tmp_path / "datasets")
    with pytest.raises(ValueError) as plain:
        read_csv(path)
    with pytest.raises(ValueError) as stored:
        store.read_csv(path)
    assert str(stored.value) == str(plain.value)
    assert str(plain.value).startswith(str(path))
    assert not store.root.exists()


def test_rewritten_file_of_same_size_and_mtime_is_a_miss(tmp_path):
    path = csv_file(tmp_path, b"a,b\nx,y\nx,z\n")
    store = DatasetStore(tmp_path / "datasets")
    store.read_csv(path)
    before = path.stat()
    path.write_bytes(b"a,b\nx,y\nq,z\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)

    table = store.read_csv(path)
    assert store.outcome == "miss"
    assert_same_table(table, read_csv(path))
    assert table.column("a").values == ["x", "q"]
    assert len(entries(store)) == 2


def damaged_copies(good: bytes):
    """Empty, foreign and truncated entries, and one per flipped byte."""
    yield b""
    yield b"not an npz archive" * 8
    for length in range(1, len(good), 5):
        yield good[:length]
    for position in range(len(good)):
        flipped = bytearray(good)
        flipped[position] ^= 0xFF
        yield bytes(flipped)


def test_damaged_entry_loads_as_a_miss_and_is_replaced(tmp_path):
    path = csv_file(tmp_path, CASES["quoted"])
    expected = read_csv(path)
    store = DatasetStore(tmp_path / "datasets")
    store.read_csv(path)
    [name] = entries(store)
    entry = store.root / name
    good = entry.read_bytes()
    outcomes = set()
    for damaged in damaged_copies(good):
        entry.write_bytes(damaged)
        assert_same_table(store.read_csv(path), expected)
        outcomes.add(store.outcome)
        # A miss replaced the entry; a hit left an entry that still loads.
        assert_same_table(store.read_csv(path), expected)
        assert store.outcome == "hit"
    assert outcomes == {"hit", "miss"}  # some flips land in unread zip fields
    assert entries(store) == [name]


def test_entry_failing_column_validation_is_a_miss(tmp_path):
    path = csv_file(tmp_path, b"a,b\nx,y\nz,y\n")
    store = DatasetStore(tmp_path / "datasets")
    store.read_csv(path)
    [name] = entries(store)
    meta = {"names": ["a", "b"], "values": [["x", "x"], ["y"]]}  # not distinct
    np.savez(
        store.root / name,
        codes=np.array([[0, 1], [0, 0]], dtype=np.int32),
        meta=np.frombuffer(json.dumps(meta).encode(), np.uint8),
    )
    assert_same_table(store.read_csv(path), read_csv(path))
    assert store.outcome == "miss"
    store.read_csv(path)
    assert store.outcome == "hit"


def test_unwritable_store_still_returns_the_table(tmp_path):
    path = csv_file(tmp_path, CASES["crlf"])
    root = tmp_path / "datasets"
    root.write_text("a regular file where the store's directory belongs")
    store = DatasetStore(root)
    for _ in range(2):
        assert_same_table(store.read_csv(path), read_csv(path))
        assert store.outcome == "miss"
    assert root.read_text().startswith("a regular file")


def test_a_drain_during_the_write_still_stops_the_load(tmp_path, monkeypatch):
    def drained(*args):
        raise runner.DrainRequested()

    monkeypatch.setattr(connectors, "atomic_write_bytes", drained)
    with pytest.raises(runner.DrainRequested):
        DatasetStore(tmp_path / "datasets").read_csv(csv_file(tmp_path, b"a\nx\n"))


#: Loads ``argv[1]`` through a store at ``argv[2]``, publishing its entry
#: only once as many processes as ``argv[4]`` have missed (each leaves a
#: mark in ``argv[3]``), then prints its outcome and table.
MISS_TOGETHER = """
import json
import os
import sys
import time
from pathlib import Path

from repro.service import connectors

path, root, marks = (Path(arg) for arg in sys.argv[1:4])
count = int(sys.argv[4])
publish = connectors.atomic_write_bytes


def publish_once_all_missed(entry, data):
    (marks / str(os.getpid())).touch()
    deadline = time.monotonic() + 60
    while len(list(marks.iterdir())) < count and time.monotonic() < deadline:
        time.sleep(0.01)
    return publish(entry, data)


connectors.atomic_write_bytes = publish_once_all_missed
store = connectors.DatasetStore(root)
table = store.read_csv(path)
columns = [[column.codes.tolist(), column.values] for column in table.columns()]
print(json.dumps([store.outcome, list(table.schema.names), columns]))
"""


def test_two_processes_that_miss_at_once_publish_one_entry(tmp_path):
    path = csv_file(tmp_path, CASES["non-ascii"])
    root, marks = tmp_path / "datasets", tmp_path / "marks"
    marks.mkdir()
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", MISS_TOGETHER, *map(str, (path, root, marks)), "2"]
    children = [
        subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert len(list(marks.iterdir())) == 2, "a child published before both missed"
    expected = read_csv(path)
    want = [
        "miss",
        list(expected.schema.names),
        [[column.codes.tolist(), column.values] for column in expected.columns()],
    ]
    assert [json.loads(output) for output in outputs] == [want, want]
    store = DatasetStore(root)
    assert len(entries(store)) == 1 and entries(store)[0].endswith(".npz")
    assert_same_table(store.read_csv(path), expected)
    assert store.outcome == "hit"


def test_recover_empties_the_store(tmp_path):
    data_dir = tmp_path / "svc"
    store = DatasetStore(data_dir / runner.DATASET_DIR)
    store.read_csv(csv_file(tmp_path, CASES["quoted"]))
    assert len(entries(store)) == 1
    manager = JobManager(data_dir)
    try:
        manager.recover()
    finally:
        manager.store.close()
    assert not store.root.exists()


def load_spans(job_dir: Path) -> list[dict]:
    with open(job_dir / runner.TRACE_FILE) as handle:
        return [
            span
            for span in read_json_lines(handle)
            if span["name"] == "service.job.load"
        ]


@pytest.mark.parametrize("kind", ["csv", "memory"])
def test_second_job_on_the_same_content_hits(tmp_path, memory_dataset, kind):
    """Two jobs in a row on one CSV, or on one registered table (each job
    spills its own copy): the first loads through a miss, the second
    through a hit, and both results equal the inline oracle's."""
    dataset = write_dataset_csv(tmp_path) if kind == "csv" else memory_dataset
    manager = JobManager(
        tmp_path / "svc", retry_backoff_base=0.01, retry_backoff_cap=0.05
    )
    manager.start()
    try:
        outcomes = []
        for _ in range(2):
            record = manager.submit(JobSpec.from_json(job_payload(dataset)))
            assert manager.wait_idle(120.0), "manager never went idle"
            record = manager.get(record.id)
            assert record.state == "succeeded", record.cause
            spans = load_spans(manager.job_dir(record.id))
            outcomes.append([span["attrs"]["store"] for span in spans])
            oracle = runner.run_job_inline(record.spec)
            result = manager.result(record.id)
            assert runner.comparable(result) == runner.comparable(oracle)
    finally:
        manager.drain()
    assert outcomes == [["miss"], ["hit"]]
    assert len(list((tmp_path / "svc" / runner.DATASET_DIR).iterdir())) == 1

