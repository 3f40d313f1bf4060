"""Dataset connectors: resolve a job's dataset reference to a problem.

The service accepts datasets by *reference*, so job payloads stay small
and the same job document works against in-memory fixtures, files on
disk, and real stores.  A reference is ``kind:target`` with optional
``?key=value`` parameters:

``builtin:adults?rows=2000&qi=4``
    The paper's seeded synthetic databases (``adults``, ``landsend``,
    ``patients``).  Hierarchies and quasi-identifier come with the
    dataset; ``rows`` caps the row count and ``qi`` the QI size.
``csv:/path/to/data.csv``
    A CSV file with a header row.  The job spec must carry ``qi`` and a
    ``hierarchies`` spec (:mod:`repro.hierarchy.spec` format).
``sqlite:/path/to/db.sqlite#tablename``
    One table of a SQLite database, read through the stdlib ``sqlite3``
    module.  Like csv, the job supplies ``qi`` + ``hierarchies``.
``memory:name``
    A table registered in-process via :func:`register_memory_dataset` —
    the fixture/test connector.  Because job runners are forked from a
    preloaded fork server, which never saw the registry, the manager
    spills memory datasets to a CSV inside the job directory at
    submission time and rewrites the reference
    (:func:`spill_memory_dataset`), which also makes the job resumable
    after a server restart.

Connectors are deliberately read-only: a job loads its input, anonymizes,
and writes results into its own job directory — the service never mutates
a source store.  A job runner reads ``csv:`` files through a
:class:`DatasetStore` in the server's data directory, which keeps one
encoded copy per distinct file content.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import json
import sqlite3
import zipfile
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qsl, unquote

import numpy as np

from repro.relational.column import CODE_DTYPE, Column
from repro.relational.csvio import parse_csv, read_csv, write_csv
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.resilience.atomicio import atomic_write_bytes

if TYPE_CHECKING:
    from repro.core.problem import PreparedTable
    from repro.service.jobs import JobSpec


class ConnectorError(ValueError):
    """A dataset reference cannot be parsed or resolved."""


#: In-process dataset registry backing the ``memory:`` connector.
_MEMORY_DATASETS: dict[str, Table] = {}


def register_memory_dataset(name: str, table: Table) -> None:
    """Register ``table`` under ``memory:name`` (replaces any previous)."""
    if not name:
        raise ConnectorError("memory dataset name must be non-empty")
    _MEMORY_DATASETS[name] = table


def unregister_memory_dataset(name: str) -> None:
    _MEMORY_DATASETS.pop(name, None)


def parse_ref(text: str) -> tuple[str, str, dict[str, str]]:
    """Split ``kind:target?params`` into its three pieces.

    A bare builtin name (``adults``) is accepted as ``builtin:`` shorthand
    so quick CLI submissions stay terse.
    """
    if not isinstance(text, str) or not text.strip():
        raise ConnectorError("dataset reference must be a non-empty string")
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        head, rest = "builtin", text
    kind = head.lower()
    if kind not in ("builtin", "csv", "sqlite", "memory"):
        raise ConnectorError(
            f"unknown dataset connector {kind!r} "
            f"(expected builtin:, csv:, sqlite:, or memory:)"
        )
    target, qsep, query = rest.partition("?")
    params = dict(parse_qsl(query)) if qsep else {}
    target = unquote(target)
    if not target:
        raise ConnectorError(f"dataset reference {text!r} names no target")
    return kind, target, params


def _int_param(params: dict[str, str], key: str) -> int | None:
    raw = params.get(key)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConnectorError(f"dataset parameter {key}={raw!r} is not an integer")
    if value < 1:
        raise ConnectorError(f"dataset parameter {key} must be >= 1, got {value}")
    return value


def _builtin_problem(target: str, params: dict[str, str]) -> "PreparedTable":
    from repro.datasets.adults import adults_problem
    from repro.datasets.landsend import landsend_problem
    from repro.datasets.patients import patients_problem

    rows = _int_param(params, "rows")
    qi_size = _int_param(params, "qi")
    name = target.lower()
    if name == "adults":
        return adults_problem(rows or 45_222, qi_size=qi_size)
    if name == "landsend":
        return landsend_problem(rows or 200_000, qi_size=qi_size)
    if name == "patients":
        return patients_problem()
    raise ConnectorError(
        f"unknown builtin dataset {target!r} "
        f"(expected adults, landsend, or patients)"
    )


def _load_sqlite(target: str) -> Table:
    path_text, sep, table_name = target.partition("#")
    if not sep or not table_name:
        raise ConnectorError(
            f"sqlite reference {target!r} must name a table: "
            f"sqlite:/path/db.sqlite#tablename"
        )
    path = Path(path_text)
    if not path.exists():
        raise ConnectorError(f"sqlite database {path} does not exist")
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        if not connection.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name=?",
            (table_name,),
        ).fetchone():
            raise ConnectorError(f"sqlite table {table_name!r} not found in {path}")
        # Identifier quoting: table names cannot be parameterised, but the
        # existence check above confines the name to real tables.
        quoted = table_name.replace('"', '""')
        cursor = connection.execute(f'SELECT * FROM "{quoted}"')
        names = [description[0] for description in cursor.description]
        rows = [tuple(row) for row in cursor.fetchall()]
    finally:
        connection.close()
    return Table.from_rows(Schema.of(*names), rows)


#: What loading a missing, damaged or foreign store entry raises (a flipped
#: bit in a zip header can raise NotImplementedError or RuntimeError).
_BAD_ENTRY = (OSError, EOFError, KeyError, TypeError, ValueError,
              NotImplementedError, RuntimeError, zipfile.BadZipFile)
codecs.lookup("cp437")  # zipfile's name codec, found once per fork server


class DatasetStore:
    """Encoded ``csv:`` tables under ``root``, one entry per file content.

    An entry, ``<sha256 of the file's bytes>.npz``, holds the int32 codes
    as one ``codes`` array and, as ``meta``, a JSON object's UTF-8 bytes:
    the header names and each column's values in code order (numpy string
    arrays drop trailing NULs).  A hit builds the table with ``Column``
    validation on; a miss parses the hashed bytes as :func:`read_csv`
    would and publishes the entry atomically.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        #: ``"hit"`` or ``"miss"``: the path the last :meth:`read_csv` took.
        self.outcome: str | None = None

    def read_csv(self, path: Path) -> Table:
        """``read_csv(path)``, from the entry of ``path``'s bytes if one loads."""
        data = path.read_bytes()
        entry = self.root / f"{hashlib.sha256(data).hexdigest()}.npz"
        try:
            with np.load(entry, allow_pickle=False) as archive:
                meta, codes = json.loads(archive["meta"].tobytes()), archive["codes"]
            if codes.dtype != CODE_DTYPE:
                raise ValueError(f"{entry} holds {codes.dtype} codes")
            pairs = zip(codes, meta["values"], strict=True)
            self.outcome = "hit"
            return Table(Schema.of(*meta["names"]), [Column(*p) for p in pairs])
        except _BAD_ENTRY:
            self.outcome = "miss"
        table = parse_csv(io.TextIOWrapper(io.BytesIO(data), newline=""), path)
        columns = table.columns()
        meta = {"names": table.schema.names, "values": [c.values for c in columns]}
        buffer = io.BytesIO()
        np.savez(
            buffer,
            codes=np.array([column.codes for column in columns], CODE_DTYPE),
            meta=np.frombuffer(json.dumps(meta).encode(), np.uint8),
        )
        with suppress(OSError):  # an unwritable store costs later loads a parse
            atomic_write_bytes(entry, buffer.getvalue())
        return table


def load_table(ref: str, store: DatasetStore | None = None) -> Table:
    """Resolve a non-builtin reference to its raw Table (``csv:`` via ``store``)."""
    kind, target, _ = parse_ref(ref)
    if kind == "csv":
        path = Path(target)
        if not path.exists():
            raise ConnectorError(f"csv file {path} does not exist")
        return read_csv(path) if store is None else store.read_csv(path)
    if kind == "sqlite":
        return _load_sqlite(target)
    if kind == "memory":
        table = _MEMORY_DATASETS.get(target)
        if table is None:
            raise ConnectorError(
                f"no memory dataset registered under {target!r} "
                f"(register_memory_dataset first)"
            )
        return table
    raise ConnectorError(f"load_table cannot resolve builtin reference {ref!r}")


def load_problem(spec: "JobSpec", store: DatasetStore | None = None) -> "PreparedTable":
    """Resolve a job spec's dataset + QI spec into a prepared problem.

    Builtin datasets carry their own hierarchies; every other connector
    requires the spec's ``hierarchies`` (and uses ``qi`` to order the
    quasi-identifier, defaulting to all hierarchy keys).
    """
    from repro.core.problem import PreparedTable
    from repro.hierarchy.spec import hierarchies_from_spec

    kind, target, params = parse_ref(spec.dataset)
    if kind == "builtin":
        return _builtin_problem(target, params)
    if not spec.hierarchies:
        raise ConnectorError(
            f"{kind}: datasets need a 'hierarchies' spec in the job payload"
        )
    table = load_table(spec.dataset, store)
    hierarchies = hierarchies_from_spec(spec.hierarchies)
    qi = list(spec.qi) if spec.qi else list(hierarchies)
    missing = [name for name in qi if name not in table.schema.names]
    if missing:
        raise ConnectorError(
            f"quasi-identifier column(s) {missing} not present in dataset "
            f"{spec.dataset!r}"
        )
    return PreparedTable(table, hierarchies, qi)


def spill_memory_dataset(spec: "JobSpec", job_dir: Path) -> "JobSpec":
    """Materialise a ``memory:`` reference into the job's directory.

    Job runners are forked from a preloaded fork server, which never saw
    the registry, and a server restart loses the registry entirely — so at
    admission time the manager spills the registered table to
    ``<job_dir>/dataset.csv`` and rewrites the reference to ``csv:``.
    Non-memory references pass through untouched.
    """
    from dataclasses import replace

    kind, target, _ = parse_ref(spec.dataset)
    if kind != "memory":
        return spec
    table = _MEMORY_DATASETS.get(target)
    if table is None:
        raise ConnectorError(
            f"no memory dataset registered under {target!r} "
            f"(register_memory_dataset first)"
        )
    job_dir.mkdir(parents=True, exist_ok=True)
    spill_path = job_dir / "dataset.csv"
    write_csv(table, spill_path)
    return replace(spec, dataset=f"csv:{spill_path}")


def describe_connectors() -> dict[str, Any]:
    """Connector inventory for the health endpoint / CLI diagnostics."""
    return {
        "kinds": ["builtin", "csv", "sqlite", "memory"],
        "memory_datasets": sorted(_MEMORY_DATASETS),
    }
