"""CSV import/export for :class:`~repro.relational.table.Table`.

Values are parsed according to the schema's logical types when a schema is
supplied; otherwise everything loads as strings (callers can still group,
join, and anonymize string data — the engine is type-agnostic).

:func:`read_csv` reads a column at a time: the records stay the lists that
:mod:`csv` returns, each column is dictionary-encoded straight from its
field of every record, and only a typed (``INT``/``FLOAT``) column runs its
parser, once over the column.  No per-row tuple is built.  The codes and
values are the ones a row-at-a-time parse and encode would give.
"""

from __future__ import annotations

import csv
from operator import itemgetter
from pathlib import Path
from typing import Iterable, TextIO

from repro.relational.column import Column
from repro.relational.schema import ColumnType, Schema
from repro.relational.table import Table


def read_csv(
    path: str | Path,
    schema: Schema | None = None,
    *,
    delimiter: str = ",",
) -> Table:
    """Load a CSV file (with header row) into a Table.

    When ``schema`` is given, its column order must match the header and its
    logical types drive parsing; otherwise the header defines a STRING schema.
    """
    with Path(path).open(newline="") as handle:
        return parse_csv(handle, path, schema, delimiter)


def parse_csv(
    handle: TextIO, path: str | Path, schema: Schema | None = None, delimiter: str = ","
) -> Table:
    """:func:`read_csv` on an open text ``handle``; ``path`` names it in errors."""
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path} is empty (no header row)") from None
    if schema is None:
        schema = Schema.of(*header)
    elif list(schema.names) != header:
        raise ValueError(
            f"schema names {list(schema.names)} do not match header {header}"
        )
    records = list(reader)
    width = len(schema)
    if set(map(len, records)) - {width}:
        lineno, raw = next(
            (lineno, raw)
            for lineno, raw in enumerate(records, start=2)
            if len(raw) != width
        )
        raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(raw)}")
    columns = []
    for position, spec in enumerate(schema):
        fields = map(itemgetter(position), records)
        if spec.type is not ColumnType.STRING:
            fields = map(spec.type.parse, fields)
        columns.append(Column.from_values(fields))
    return Table(schema, columns)


def write_csv(
    table: Table,
    path: str | Path,
    *,
    delimiter: str = ",",
) -> None:
    """Write a Table to ``path`` with a header row."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(table.schema.names)
        writer.writerows(table.iter_rows())


def rows_to_csv_text(names: Iterable[str], rows: Iterable[tuple]) -> str:
    """Render rows as CSV text (used by examples for display/export)."""
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(names))
    writer.writerows(rows)
    return buffer.getvalue()
