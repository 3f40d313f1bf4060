"""Nestable trace spans with monotonic timing — the tracing half of
:mod:`repro.obs`.

A :class:`Tracer` hands out :class:`Span` context managers::

    with tracer.span("rollup", node="<B1, Z0>") as sp:
        ...
        sp.set(groups=result.num_groups)

Spans nest (the tracer keeps a stack), time themselves with
``time.perf_counter``, carry free-form attributes, and are pushed to a
pluggable sink (:mod:`repro.obs.sinks`) as they close — children before
parents, each with ``span_id`` / ``parent_id`` so flat JSON-lines output
reconstructs the tree exactly.  A run's counts live in its
``SearchStats``, not on its spans.

A *disabled* tracer returns one shared no-op span, so instrumented hot
paths cost a function call and nothing more when observability is off.
Guard any expensive attribute construction with the span's truthiness::

    with obs.span("scan") as sp:
        result = compute(...)
        if sp:  # False on the no-op span
            sp.set(node=str(node), groups=result.num_groups)
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.obs.context import (
    TraceContext,
    new_span_id,
    new_trace_id,
    process_identity,
)
from repro.obs.metrics import NULL_TIMER, MetricSet, _MetricTimer
from repro.obs.sinks import NullSink, Sink


class Span:
    """One timed, attributed region of work; usable as a context manager."""

    __slots__ = (
        "name",
        "attrs",
        "started",
        "ended",
        "span_id",
        "parent_id",
        "trace_id",
        "remote",
        "depth",
        "thread",
        "_tracer",
        "_context",
    )

    def __init__(
        self,
        name: str,
        attrs: dict[str, Any],
        tracer: "Tracer",
        context: TraceContext | None = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.started: float | None = None
        self.ended: float | None = None
        self.span_id: int = -1
        self.parent_id: int | None = None
        self.trace_id: str = ""
        #: True when ``parent_id`` names a span in *another* process
        #: (propagated via a :class:`TraceContext`), so tree rebuilders
        #: know to look beyond this process's records.
        self.remote: bool = False
        self.depth: int = 0
        self.thread: int = 0
        self._tracer = tracer
        self._context = context

    # -- recording ------------------------------------------------------
    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes on the span."""
        self.attrs.update(attrs)

    # -- inspection -----------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds; 0.0 until the span has both started and ended."""
        if self.started is None or self.ended is None:
            return 0.0
        return self.ended - self.started

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready flat record (children referenced by their own lines).

        ``started``/``ended`` are raw ``perf_counter`` readings — only
        differences between values from the same process are meaningful.
        ``unix_started``/``unix_ended`` are the same instants rebased to
        the wall clock via the tracer's anchor, so *stitching* can place
        spans from different processes on one timeline.  ``thread`` is a
        dense per-tracer index (0 = first thread to open a span), stable
        enough for trace viewers to lane spans by.
        """
        tracer = self._tracer
        anchor = tracer.unix_anchor
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "remote": self.remote,
            "pid": tracer.pid,
            "process": tracer.process_name,
            "depth": self.depth,
            "name": self.name,
            "started": self.started,
            "ended": self.ended,
            "unix_started": (
                anchor + self.started if self.started is not None else None
            ),
            "unix_ended": (
                anchor + self.ended if self.ended is not None else None
            ),
            "thread": self.thread,
            "duration_seconds": self.duration_seconds,
            "attrs": dict(self.attrs),
        }

    @property
    def context(self) -> TraceContext:
        """This span's position as a propagatable context."""
        return TraceContext(self.trace_id, self.span_id)

    def traceparent(self) -> str:
        """The W3C-style wire form naming this span as the parent."""
        return self.context.to_traceparent()

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"duration={self.duration_seconds:.6f}s, attrs={self.attrs!r})"
        )

    # -- context management --------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        self.thread = tracer._thread_index()
        stack = tracer._stack
        if stack:
            # In-process nesting wins: the open parent defines both the
            # link and the trace this span belongs to.
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
            self.trace_id = parent.trace_id
        elif self._context is not None:
            # Explicit remote context (span_from): adopt its trace and
            # parent to the span on the far side of the process boundary.
            self.trace_id = self._context.trace_id
            self.parent_id = self._context.span_id
            self.remote = self.parent_id is not None
        else:
            # A root span inherits the tracer's trace — which itself may
            # be a remote continuation (a runner child's whole tracer is
            # parented under the manager's launch span).
            self.trace_id = tracer.trace_id
            self.parent_id = tracer.remote_parent_id
            self.remote = self.parent_id is not None
        stack.append(self)
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.ended = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack
        # Tolerate a corrupted stack (mismatched exits) rather than raising
        # from instrumentation: find and remove this span wherever it is.
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            stack.remove(self)
        tracer._close(self)


class _NullSpan:
    """Shared do-nothing span returned by disabled tracers."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    @property
    def context(self) -> None:
        return None

    def traceparent(self) -> None:
        return None

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Factory for spans and home of a run's histograms.

    Attributes
    ----------
    enabled:
        When False, :meth:`span` returns the shared no-op span and
        :meth:`observe` does nothing — the zero-overhead default.
    sink:
        Receives every closed span (see :mod:`repro.obs.sinks`), where
        spans are counted (``InMemorySink.count``).
    metrics:
        Run-wide :class:`MetricSet` of latency/distribution histograms;
        :meth:`observe` and :meth:`timer` record here (``--metrics-out``
        dumps its quantile summaries).
    """

    def __init__(
        self,
        sink: Sink | None = None,
        *,
        enabled: bool = True,
        context: TraceContext | None = None,
    ) -> None:
        self.enabled = enabled
        self.sink: Sink = sink if sink is not None else NullSink()
        self.metrics = MetricSet()
        #: The trace this tracer's root spans belong to.  With a remote
        #: ``context`` (a runner child continuing the server's trace) the
        #: trace id is inherited and root spans parent to the remote span;
        #: otherwise every tracer opens a fresh trace of its own.
        self.context = context
        if context is not None:
            self.trace_id = context.trace_id
            self.remote_parent_id = context.span_id
        else:
            self.trace_id = new_trace_id()
            self.remote_parent_id = None
        self.pid, self.process_name = process_identity()
        #: Wall-clock origin of this process's ``perf_counter`` epoch —
        #: ``anchor + perf_counter()`` ≈ ``time.time()`` — letting the
        #: stitcher place spans from different processes on one timeline.
        #: Read exactly once per tracer; span *durations* stay monotonic.
        # ra: RA001 -- wall-clock anchor for cross-process trace stitching:
        # read once at tracer construction, never used in any result or
        # counter the determinism contract covers (timestamps only).
        self.unix_anchor = time.time() - time.perf_counter()
        # Span nesting is per thread: the parallel evaluator's thread
        # workers each get their own stack, so concurrently open spans
        # never corrupt each other's parent/child links.  Metrics and sink
        # emission stay process-wide, guarded by one lock.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_ids: dict[int, int] = {}

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs: Any):
        """Open a nestable span; returns the no-op span when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, attrs, self)

    def span_from(self, context: TraceContext | None, name: str, **attrs: Any):
        """Open a span explicitly parented by a propagated ``context``.

        The cross-process entry point: a worker or scheduler thread with
        an *empty* local stack opens its span under the remote parent the
        context names, keeping the whole job on one trace id.  A ``None``
        context (propagation lost) degrades to a plain :meth:`span`.
        """
        if not self.enabled:
            return NULL_SPAN
        if context is None:
            return Span(name, attrs, self)
        return Span(name, attrs, self, context=context)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation into the run-wide metrics."""
        if not self.enabled:
            return
        with self._lock:
            self.metrics.observe(name, value)

    def timer(self, name: str):
        """Context manager timing a region into histogram ``name``.

        Returns the shared no-op timer when disabled, so instrumented hot
        paths pay one call and a truthiness check at most.
        """
        if not self.enabled:
            return NULL_TIMER
        return _MetricTimer(self, name)

    def merge_metrics(self, metrics: MetricSet) -> None:
        """Fold an external :class:`MetricSet` into the run-wide metrics.

        The bench harness pushes each measured run's ``SearchStats``
        histograms (``latency.scan_seconds`` and friends, which record on
        the stats surface, not the tracer) through here so
        ``--metrics-out`` describes the whole sweep.  No-op when disabled.
        """
        if not self.enabled:
            return
        with self._lock:
            self.metrics.merge(metrics)

    def flush(self) -> None:
        """Push any buffered sink output to its stream (crash-safety)."""
        flush = getattr(self.sink, "flush", None)
        if flush is not None:
            with self._lock:
                flush()

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    # -- internal -------------------------------------------------------
    def _next_id(self) -> int:
        """A globally unique random 64-bit span id (see repro.obs.context).

        Random rather than sequential so ids from *different processes*
        never collide when their trace files are stitched into one tree.
        """
        return new_span_id()

    def _thread_index(self) -> int:
        """Dense index of the calling thread (0 = first thread seen)."""
        ident = threading.get_ident()
        with self._lock:
            index = self._thread_ids.get(ident)
            if index is None:
                index = self._thread_ids[ident] = len(self._thread_ids)
            return index

    def _close(self, span: Span) -> None:
        with self._lock:
            self.sink.emit(span)
