"""Shared-memory backing for prepared tables (zero-copy shard evaluation).

Worker processes (the ``shards`` execution mode) never receive a pickled
copy of the :class:`~repro.core.problem.PreparedTable`; at the paper's
full Lands End scale (4,591,581 rows × 8 QI columns) one copy per worker
would dominate start-up and multiply peak RSS by the worker count.
Instead the QI code arrays live in named
:mod:`multiprocessing.shared_memory` segments, and workers receive a
small picklable :class:`SharedProblemHandle` — segment names, dtypes,
shapes, dictionaries, compiled hierarchies — from which
:func:`attach_problem` rebuilds a read-only, zero-copy view of the same
table.  Both ``fork`` and ``spawn`` start methods work, because nothing
crosses the process boundary except the handle.

Ownership model
---------------
Exactly one parent-side :class:`SharedTableStore` owns each set of
segments and is responsible for :meth:`SharedTableStore.close` (close +
``unlink``).  Workers only *attach*: their mappings are released when the
worker exits, and they never unlink — the parent's ``unlink`` is the
single point where the backing objects are removed, with the stdlib
resource tracker as the crash backstop (it unlinks once every process
sharing it has exited, and workers exit when their parent dies: see
:func:`repro.parallel.worker.init_worker_shared`).  The shard execution
mode ties this lifecycle to
:meth:`repro.parallel.evaluator.BatchMaterializer.close` for stores it
creates itself; stores attached to a problem by a streaming builder
(``problem._shm_store``) are adopted, not owned, and stay alive for the
problem's lifetime.

Close the owning store after releasing any parent-side views of its
arrays; live views make the unmap lazy (it happens when the last view
drops) but never block the ``unlink``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.problem import PreparedTable
from repro.hierarchy.base import CompiledHierarchy, Hierarchy
from repro.relational.column import CODE_DTYPE, Column
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.shard import manifest


@dataclass(frozen=True)
class SharedColumnSpec:
    """Recipe for attaching one QI column from a shared-memory segment."""

    name: str
    segment: str
    dtype: str
    shape: tuple[int, ...]
    values: list = field(default_factory=list)


@dataclass(frozen=True)
class SharedProblemHandle:
    """Everything a worker needs to rebuild the problem without the table.

    Picklable and small: per-column attach recipes (the code arrays
    themselves stay in shared memory), the compiled hierarchy lookup
    tables, and the quasi-identifier order.
    """

    columns: tuple[SharedColumnSpec, ...]
    hierarchies: dict[str, CompiledHierarchy]
    quasi_identifier: tuple[str, ...]

    @property
    def num_rows(self) -> int:
        return int(self.columns[0].shape[0]) if self.columns else 0


def attach_problem(handle: SharedProblemHandle) -> PreparedTable:
    """Attach to the handle's segments and rebuild a zero-copy problem.

    The returned problem's code arrays are read-only views directly into
    the shared segments — no row data is copied.  The ``SharedMemory``
    objects are pinned on the problem (``_shm_segments``) so the mappings
    live exactly as long as the problem does; attachers never ``unlink``.
    """
    columns = []
    segments = []
    try:
        for spec in handle.columns:
            segment = shared_memory.SharedMemory(name=spec.segment)
            # Pin the mapping *before* anything that can raise, so a
            # failure mid-loop (bad dtype/shape, a vanished later
            # segment) cannot strand an already-open mapping (RA008).
            segments.append(segment)
            codes = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
            )
            columns.append(Column(codes, spec.values, validate=False))
    except BaseException:
        for attached in segments:
            attached.close()
        raise
    table = Table(
        Schema.of(*(spec.name for spec in handle.columns)), columns
    )
    problem = PreparedTable(
        table, handle.hierarchies, handle.quasi_identifier
    )
    problem._shm_segments = segments
    return problem


class SharedTableStore:
    """Parent-side owner of the segments backing one problem's QI columns.

    Two construction paths:

    * :meth:`from_problem` — copy an ordinary in-memory problem's QI code
      arrays into fresh segments (one copy total, versus one per worker
      on the pickle path);
    * :meth:`allocate` + :meth:`build_problem` — streaming builders (see
      :func:`repro.datasets.landsend.landsend_problem_shm`) fill the
      segments shard-by-shard and then wrap them, so the full table is
      never materialised outside shared memory at all.
    """

    def __init__(self) -> None:
        #: (name, segment, codes-view) per allocated column, in order.
        self._columns: list[
            tuple[str, shared_memory.SharedMemory, np.ndarray]
        ] = []
        self._handle: SharedProblemHandle | None = None
        self._closed = False
        #: Names this store's leak manifest (see repro.shard.manifest).
        self._manifest_token = manifest.next_store_token()

    def _record_manifest(self) -> None:
        """Best-effort leak bookkeeping; never allowed to break allocation."""
        try:
            manifest.record_segments(
                self._manifest_token,
                [segment.name for _, segment, _ in self._columns],
            )
        except OSError:
            pass

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_problem(cls, problem: PreparedTable) -> "SharedTableStore":
        """Copy ``problem``'s QI code arrays into fresh shared segments."""
        store = cls()
        values: dict[str, Sequence[Hashable]] = {}
        for name in problem.quasi_identifier:
            column = problem.table.column(name)
            np.copyto(store.allocate(name, len(column)), column.codes)
            values[name] = column.values
        store.seal(
            values,
            {
                name: problem.hierarchy(name)
                for name in problem.quasi_identifier
            },
            problem.quasi_identifier,
        )
        return store

    def allocate(self, name: str, num_rows: int) -> np.ndarray:
        """Create column ``name``'s code segment; return a writable view."""
        self._check_open()
        if self._handle is not None:
            raise RuntimeError("store is sealed; cannot allocate more columns")
        if any(existing == name for existing, _, _ in self._columns):
            raise ValueError(f"column {name!r} already allocated")
        if num_rows < 0:
            raise ValueError(f"num_rows must be >= 0, got {num_rows}")
        nbytes = max(num_rows * np.dtype(CODE_DTYPE).itemsize, 1)
        segment = shared_memory.SharedMemory(create=True, size=nbytes)
        try:
            codes = np.ndarray(
                (num_rows,), dtype=CODE_DTYPE, buffer=segment.buf
            )
            self._columns.append((name, segment, codes))
        except BaseException:
            # The segment exists in /dev/shm but nothing owns it yet:
            # release it here or nothing ever will (RA008).
            segment.close()
            segment.unlink()
            raise
        self._record_manifest()
        return codes

    def seal(
        self,
        values: Mapping[str, Sequence[Hashable]],
        hierarchies: Mapping[str, CompiledHierarchy],
        quasi_identifier: Sequence[str],
    ) -> SharedProblemHandle:
        """Freeze the allocated columns into a picklable worker handle."""
        self._check_open()
        if self._handle is not None:
            raise RuntimeError("store is already sealed")
        self._handle = SharedProblemHandle(
            columns=tuple(
                SharedColumnSpec(
                    name=name,
                    segment=segment.name,
                    dtype=str(codes.dtype),
                    shape=tuple(codes.shape),
                    values=list(values[name]),
                )
                for name, segment, codes in self._columns
            ),
            hierarchies=dict(hierarchies),
            quasi_identifier=tuple(quasi_identifier),
        )
        return self._handle

    def build_problem(
        self,
        values: Mapping[str, Sequence[Hashable]],
        hierarchies: Mapping[str, Hierarchy | CompiledHierarchy],
        quasi_identifier: Sequence[str] | None = None,
    ) -> PreparedTable:
        """Wrap the filled segments as the parent-side prepared problem.

        The parent's columns are zero-copy views of the same segments the
        workers attach; the store rides along as ``problem._shm_store`` so
        shard-mode execution adopts it instead of re-copying the table.
        """
        self._check_open()
        columns = [
            Column(codes, values[name], validate=False)
            for name, _, codes in self._columns
        ]
        table = Table(
            Schema.of(*(name for name, _, _ in self._columns)), columns
        )
        problem = PreparedTable(table, hierarchies, quasi_identifier)
        self.seal(
            values,
            {
                name: problem.hierarchy(name)
                for name in problem.quasi_identifier
            },
            problem.quasi_identifier,
        )
        problem._shm_store = self
        return problem

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def handle(self) -> SharedProblemHandle:
        """The worker-attach handle; the store must be sealed and open."""
        self._check_open()
        if self._handle is None:
            raise RuntimeError(
                "store has no handle yet; seal() or build_problem() first"
            )
        return self._handle

    def nbytes(self) -> int:
        """Total bytes of shared code storage owned by this store."""
        return sum(codes.nbytes for _, _, codes in self._columns)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("shared-table store is closed")

    def close(self) -> None:
        """Release and ``unlink`` every owned segment (idempotent).

        Owner-side only: after this, new attaches fail and the backing
        objects are gone once the last mapping drops.  A segment whose
        parent-side view is still referenced cannot be unmapped yet
        (``BufferError``); it is still unlinked, so nothing outlives the
        process, and its memory returns when the view is released.
        """
        if self._closed:
            return
        self._closed = True
        self._handle = None
        columns, self._columns = self._columns, []
        segments = [segment for _, segment, _ in columns]
        del columns  # drop our own array views so the unmap can succeed
        for segment in segments:
            try:
                segment.close()
            except BufferError:
                # A parent-side view (a live shm-backed problem) still
                # exports this buffer; its mapping is reclaimed when the
                # view drops.  The unlink below is unaffected.
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        try:
            manifest.remove_manifest(self._manifest_token)
        except OSError:
            pass
