"""Span sinks: where closed trace spans go.

Three implementations cover the use cases the engine needs:

* :class:`NullSink` — discard everything (the default; tracing off).
* :class:`InMemorySink` — keep spans in a list, with small query helpers
  (``count``, ``named``, ``roots``) for tests and in-process callers.
* :class:`JsonLinesSink` — serialise each span as one JSON object per line
  to any writable text stream; ``--trace`` wires this to a file or stderr.
  Lines carry ``span_id`` / ``parent_id`` / ``depth`` so the nesting is
  reconstructable (see :func:`read_json_lines`).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Protocol

if TYPE_CHECKING:  # circular at runtime: trace.py imports sinks.py
    from repro.obs.trace import Span


class Sink(Protocol):
    """Anything that accepts closed spans."""

    def emit(self, span: "Span") -> None: ...


class NullSink:
    """Discards all spans."""

    def emit(self, span: "Span") -> None:
        pass


class InMemorySink:
    """Collects closed spans (children arrive before their parents)."""

    def __init__(self) -> None:
        self.spans: list["Span"] = []

    def emit(self, span: "Span") -> None:
        self.spans.append(span)

    def named(self, name: str) -> list["Span"]:
        """All closed spans with the given name, in close order."""
        return [span for span in self.spans if span.name == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def roots(self) -> list["Span"]:
        """Top-level spans (those closed with no parent on the stack)."""
        return [span for span in self.spans if span.parent_id is None]

    def clear(self) -> None:
        self.spans.clear()


#: Buffered spans before a forced flush (keeps worst-case loss bounded).
FLUSH_EVERY_SPANS = 64

#: Seconds a buffered span may sit unflushed (keeps tail latency bounded).
FLUSH_INTERVAL_SECONDS = 1.0


class JsonLinesSink:
    """Writes one JSON object per closed span to a text stream.

    Emission is buffered — serialised lines accumulate and are written in
    one batch once :data:`FLUSH_EVERY_SPANS` lines pile up or
    :data:`FLUSH_INTERVAL_SECONDS` has passed since the last flush — so a
    fully traced ``run_figures`` sweep does not pay one write+flush
    syscall pair per span.  Crash-safety is bounded, not per-span: at most
    one buffer's worth of spans can be lost, every flush lands on a line
    boundary, and the supervisor's fault paths call
    :meth:`Tracer.flush <repro.obs.trace.Tracer.flush>` before retrying so
    faulty runs still leave their trace on disk.

    The sink does not own the stream unless constructed via :meth:`open`;
    pass ``sys.stderr`` or any file object you manage yourself.
    """

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream
        self._owns_stream = False
        self._buffer: list[str] = []
        self._last_flush = time.perf_counter()

    @classmethod
    def open(cls, path: str | Path, *, append: bool = False) -> "JsonLinesSink":
        """Create a sink that owns (and will close) the file at ``path``.

        Missing parent directories are created, as
        :func:`~repro.resilience.atomic_write_text` creates them for the
        other trace formats.  ``append=True`` preserves existing lines —
        the service runner reopens one job's ``trace.jsonl`` per attempt,
        and the earlier attempts' spans must survive for the stitched
        trace to show the whole retry history.
        """
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        sink = cls(open(path, "a" if append else "w"))
        sink._owns_stream = True
        return sink

    def emit(self, span: "Span") -> None:
        self._buffer.append(json.dumps(span.to_dict(), default=str))
        if (
            len(self._buffer) >= FLUSH_EVERY_SPANS
            or time.perf_counter() - self._last_flush >= FLUSH_INTERVAL_SECONDS
        ):
            self.flush()

    def flush(self) -> None:
        """Write and flush all buffered lines (always at a line boundary)."""
        if self._buffer:
            self.stream.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self.stream.flush()
        self._last_flush = time.perf_counter()

    def close(self) -> None:
        self.flush()
        if self._owns_stream:
            self.stream.close()


def read_json_lines(lines: Iterable[str]) -> list[dict]:
    """Parse JSON-lines trace output back into span records.

    Returns the flat records with an extra ``"children"`` list on each,
    linked via ``parent_id`` — the round-trip inverse of
    :class:`JsonLinesSink` (timing is preserved as written; spans arrive
    children-first, so every parent referenced already exists... except
    parents that never closed, whose children simply stay roots).

    Linking keys on ``(pid, span_id)``: one file may hold records from
    several processes (a stitched read, or a trace file appended across
    attempts), and a cross-process parent link is *not* an in-file child
    edge — the stitcher resolves those separately.
    """
    records: list[dict] = []
    by_id: dict[tuple, dict] = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        record["children"] = []
        records.append(record)
        by_id[(record.get("pid"), record["span_id"])] = record
    for record in records:
        parent = by_id.get((record.get("pid"), record.get("parent_id")))
        if parent is not None and not record.get("remote"):
            parent["children"].append(record)
    return records
