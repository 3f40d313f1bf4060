"""Tests for repro.relational.csvio."""

import csv
import re

import pytest

from repro.relational.csvio import read_csv, rows_to_csv_text, write_csv
from repro.relational.schema import ColumnSpec, ColumnType, Schema
from repro.relational.table import Table


def test_write_read_round_trip(tmp_path):
    table = Table.from_rows(["a", "b"], [("x", "1"), ("y", "2")])
    path = tmp_path / "t.csv"
    write_csv(table, path)
    assert read_csv(path) == table


def test_read_with_typed_schema(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("n,s\n1,x\n2,y\n")
    schema = Schema.of(ColumnSpec("n", ColumnType.INT), "s")
    table = read_csv(path, schema)
    assert table.column("n").to_list() == [1, 2]


def test_read_header_mismatch(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(path, Schema.of("x", "y"))


def test_read_wrong_field_count(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1\n")
    with pytest.raises(ValueError, match="expected 2 fields"):
        read_csv(path)


def test_read_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv(path)


def test_read_header_only(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n")
    table = read_csv(path)
    assert table.num_rows == 0
    assert table.schema.names == ("a", "b")


def test_custom_delimiter(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\nx\ty\n")
    table = read_csv(path, delimiter="\t")
    assert table.row(0) == ("x", "y")


def test_rows_to_csv_text():
    text = rows_to_csv_text(["a", "b"], [(1, 2)])
    assert text.splitlines() == ["a,b", "1,2"]


def _row_at_a_time(path, parsers):
    """Oracle: parse every field of every record, then encode each column
    in first-seen order with a dict.  Shares no code with ``csvio``."""
    with open(path, newline="") as handle:
        records = list(csv.reader(handle))
    columns = []
    for position, parse in enumerate(parsers):
        index = {}
        codes = [
            index.setdefault(parse(record[position]), len(index))
            for record in records[1:]
        ]
        columns.append((codes, list(index)))
    return records[0], columns


#: (file bytes, schema or None); every case has the header ``a,b``.
ORACLE_CASES = {
    "quoted": (
        b'a,b\n"x,y","say ""hi"""\n"two\nlines",plain\n"x,y",plain\n',
        None,
    ),
    "empty-fields": (b"a,b\n,x\n,\ny,\n,x\n", None),
    "crlf": (b'a,b\r\nx,"1\r\n2"\r\ny,z\r\nx,z\r\n', None),
    "typed": (
        b"a,b\n1,1.5\n01,-0.0\n-2,0.0\n1,1.50\n-2,2\n",
        Schema.of(
            ColumnSpec("a", ColumnType.INT), ColumnSpec("b", ColumnType.FLOAT)
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_read_matches_row_at_a_time_oracle(tmp_path, case):
    data, schema = ORACLE_CASES[case]
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    table = read_csv(path, schema)
    parsers = [spec.type.parse for spec in (schema or Schema.of("a", "b"))]
    header, expected = _row_at_a_time(path, parsers)
    assert table.schema.names == tuple(header)
    for column, (codes, values) in zip(table.columns(), expected):
        assert column.codes.tolist() == codes
        assert column.values == values
        assert [type(value) for value in column.values] == [
            type(value) for value in values
        ]
        assert repr(column.values) == repr(values)


def test_ragged_record_reports_its_record_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\nx,y\nx,y,z\nx,y\n")
    with pytest.raises(
        ValueError, match=re.escape("t.csv:3: expected 2 fields, got 3")
    ):
        read_csv(path)


def test_bad_typed_value_raises_value_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("n,s\n1,x\nseven,y\n")
    with pytest.raises(ValueError):
        read_csv(path, Schema.of(ColumnSpec("n", ColumnType.INT), "s"))
