"""W3C-traceparent-style trace context for cross-process span linking.

One *job* is one *trace*: the server opens a trace at submission, and
every process that later works on the job — the manager's scheduler, the
forked runner child, and each pool/shard worker — records its spans
under the same 128-bit trace id, each carrying the span id of its remote
parent.  The context travels as a ``traceparent`` string::

    00-<32 hex trace id>-<16 hex parent span id>-01

over whatever channel connects two processes: an HTTP header, a
``multiprocessing.Process`` argument, an environment variable, or a
chunk-payload field (see DESIGN.md §14).

Span ids are random 64-bit values drawn from a process-local *seeded*
generator (``random.Random`` keyed on pid and a monotonic-clock reading)
rather than ``os.urandom``: the determinism lint (RA001) bans ambient
entropy sources in worker-reachable modules, and a seeded generator is
its sanctioned randomness.  The generator is lazily re-created whenever
``os.getpid()`` changes, so forked pool workers do not replay the
parent's id sequence.
"""

from __future__ import annotations

import os
import random
import re
import threading
import time
from dataclasses import dataclass

#: Environment variable carrying the parent span's traceparent into
#: processes that receive no argument channel (pool workers).
TRACEPARENT_ENV = "REPRO_TRACEPARENT"

#: Environment variable naming the directory pool workers should write
#: their own ``trace-worker-<pid>.jsonl`` span files into.  Unset (the
#: default) means workers keep their tracer disabled.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: ``version-traceid-parentid-flags``, all lower-case hex.
_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)

_rng_lock = threading.Lock()
_rng: random.Random | None = None
_rng_pid: int | None = None


def _generator() -> random.Random:
    """The process-local id generator, re-seeded after any fork.

    A forked child inherits the parent's generator state byte for byte;
    without the pid check both processes would emit the same "random"
    span ids and the stitched trace would alias them.
    """
    global _rng, _rng_pid
    pid = os.getpid()
    with _rng_lock:
        if _rng is None or _rng_pid != pid:
            _rng = random.Random((pid << 48) ^ time.monotonic_ns())
            _rng_pid = pid
        return _rng


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lower-case hex characters."""
    value = 0
    while value == 0:  # the all-zero trace id is invalid per W3C
        value = _generator().getrandbits(128)
    return f"{value:032x}"


def new_span_id() -> int:
    """A fresh random 64-bit, non-zero span id (JSON-safe Python int)."""
    value = 0
    while value == 0:
        value = _generator().getrandbits(64)
    return value


def process_identity() -> tuple[int, str]:
    """``(pid, process name)`` of the calling process, freshly read.

    The name comes from :mod:`multiprocessing`, so runner children
    report the ``repro-job-<id>`` name the manager gave them
    and pool workers report their pool-assigned name.
    """
    import multiprocessing

    return os.getpid(), multiprocessing.current_process().name


@dataclass(frozen=True)
class TraceContext:
    """One propagated trace position: the trace and the remote parent.

    ``span_id`` is ``None`` only for a *fresh root* context — a trace
    that has an id but no spans yet (nothing to parent to).
    """

    trace_id: str
    span_id: int | None = None

    @classmethod
    def root(cls) -> "TraceContext":
        """A brand-new trace with no parent span."""
        return cls(new_trace_id(), None)

    def child_of(self, span_id: int) -> "TraceContext":
        """The same trace, re-rooted at ``span_id`` as the parent."""
        return TraceContext(self.trace_id, span_id)

    def to_traceparent(self) -> str:
        """The W3C-style wire form (version 00, sampled flag set)."""
        parent = self.span_id if self.span_id is not None else 0
        return f"00-{self.trace_id}-{parent & 0xFFFFFFFFFFFFFFFF:016x}-01"

    @classmethod
    def from_traceparent(cls, text: str | None) -> "TraceContext | None":
        """Parse a traceparent string; ``None`` on anything malformed.

        Propagation is best-effort by design: a missing or corrupt
        header/argument degrades to a fresh local trace, never to an
        error in the serving path.
        """
        if not text:
            return None
        match = _TRACEPARENT_RE.match(text.strip().lower())
        if match is None:
            return None
        _version, trace_id, parent_hex, _flags = match.groups()
        if trace_id == "0" * 32:
            return None
        parent = int(parent_hex, 16)
        return cls(trace_id, parent if parent else None)

    @classmethod
    def from_environment(cls) -> "TraceContext | None":
        """The context shipped via :data:`TRACEPARENT_ENV`, if any."""
        return cls.from_traceparent(os.environ.get(TRACEPARENT_ENV))
