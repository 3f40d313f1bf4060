"""``repro.obs`` — lightweight engine-wide observability.

The paper's whole evaluation is cost accounting: how many lattice nodes each
algorithm touches, and whether each evaluation scans the base table or rolls
up an existing frequency set.  This package gives every layer of the engine
one shared way to record that accounting:

* **trace spans** (:mod:`repro.obs.trace`) — nestable, monotonic-timed
  ``span("rollup", node=...)`` context managers;
* **hierarchical counters** (:mod:`repro.obs.counters`) — dotted-name
  counters with subtree aggregation (``SearchStats`` is a thin view over
  one of these);
* **distribution metrics** (:mod:`repro.obs.metrics`) — fixed-bucket
  log-scaled histograms and timers with exact, order-free merging
  (``observe("latency.scan_seconds", dt)`` / ``timer(...)``);
* **pluggable sinks** (:mod:`repro.obs.sinks`) — no-op, in-memory, and
  buffered JSON-lines;
* **standard exports** (:mod:`repro.obs.export`) — Chrome trace-event
  JSON (Perfetto-loadable) and folded-stack flamegraph text rendered from
  closed span records;
* **profiling** (:mod:`repro.obs.profile`) — a ``cProfile`` hook that wraps
  any algorithm run and dumps the top-N hotspots.

The module-level tracer is *disabled* by default, and instrumented hot
paths pay one function call when it is off.  Turn it on for a region::

    from repro import obs
    from repro.obs import InMemorySink, Tracer

    tracer = Tracer(InMemorySink())
    with obs.use_tracer(tracer):
        basic_incognito(problem, k)
    tracer.sink.count("scan")   # table scans, as spans

or globally (the CLI's ``--trace`` does this)::

    obs.set_tracer(Tracer(JsonLinesSink(sys.stderr)))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.context import (
    TRACE_DIR_ENV,
    TRACEPARENT_ENV,
    TraceContext,
    new_span_id,
    new_trace_id,
)
from repro.obs.counters import CounterSet
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    folded_stacks,
    parse_folded,
    render_trace,
)
from repro.obs.metrics import NULL_TIMER, Histogram, MetricSet
from repro.obs.profile import profile, profile_call
from repro.obs.sinks import (
    InMemorySink,
    JsonLinesSink,
    NullSink,
    Sink,
    read_json_lines,
)
from repro.obs.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "CounterSet",
    "Histogram",
    "InMemorySink",
    "JsonLinesSink",
    "MetricSet",
    "NullSink",
    "NULL_SPAN",
    "NULL_TIMER",
    "Sink",
    "Span",
    "TRACE_DIR_ENV",
    "TRACEPARENT_ENV",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "chrome_trace_json",
    "enabled",
    "flush",
    "folded_stacks",
    "get_tracer",
    "new_span_id",
    "new_trace_id",
    "observe",
    "parse_folded",
    "profile",
    "profile_call",
    "read_json_lines",
    "render_trace",
    "set_tracer",
    "span",
    "span_from",
    "timer",
    "use_tracer",
]

#: The process-wide tracer; disabled (and therefore free) unless replaced.
_active: Tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The currently installed tracer (disabled no-op by default)."""
    return _active


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide tracer; returns the previous."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Temporarily install ``tracer`` (tests and scoped instrumentation)."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def enabled() -> bool:
    """Whether the active tracer records anything."""
    return _active.enabled


def span(name: str, **attrs: Any):
    """Open a span on the active tracer (no-op span when disabled)."""
    return _active.span(name, **attrs)


def span_from(context: TraceContext | None, name: str, **attrs: Any):
    """Open a span under a propagated remote context (cross-process)."""
    return _active.span_from(context, name, **attrs)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active tracer's metrics."""
    _active.observe(name, value)


def timer(name: str):
    """Time a region into the active tracer's histogram ``name``.

    Returns a no-op context manager when the tracer is disabled.
    """
    return _active.timer(name)


def flush() -> None:
    """Flush the active tracer's sink (buffered JSON-lines, crash paths)."""
    _active.flush()
