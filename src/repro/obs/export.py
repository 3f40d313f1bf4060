"""Standard trace exports: Chrome trace-event JSON and folded stacks.

Both exporters consume the *flat span records* produced by
:meth:`Span.to_dict <repro.obs.trace.Span.to_dict>` — either straight off
an :class:`~repro.obs.sinks.InMemorySink` (``[s.to_dict() for s in
sink.spans]``) or re-read from a JSON-lines trace file with
:func:`~repro.obs.sinks.read_json_lines` — and turn them into formats
existing tools understand:

* :func:`chrome_trace` — the Trace Event Format (``ph``/``ts``/``pid``/
  ``tid`` duration events), loadable in Perfetto / ``chrome://tracing``;
* :func:`folded_stacks` — Brendan Gregg's folded-stack text
  (``parent;child;leaf <value>``), the input format of ``flamegraph.pl``
  and most flamegraph viewers, with self-time microseconds as values.

Span timestamps are raw ``time.perf_counter`` readings, so the exporters
rebase everything against the earliest span start and only ever compare
readings from the same trace.  Events are emitted by a structural walk of
the span tree (parents sorted by start, children before the parent's end
event) rather than by sorting on timestamps, so zero-duration spans at
tied timestamps still produce correctly nested begin/end pairs.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping


def _span_key(record: Mapping) -> tuple:
    """Identity of one span record across a multi-process trace.

    Plain ``span_id`` keying is ambiguous once records from several
    processes are mixed — two children that reuse an id sequence (or,
    with random ids, merely *could* collide) would silently alias — so
    every tree walk keys on ``(pid, span_id)``.  Records from traces
    predating the ``pid`` field key on ``(None, span_id)``, preserving
    the old single-process behaviour.
    """
    return (record.get("pid"), record["span_id"])


def _forest(
    records: Iterable[Mapping],
) -> tuple[list[dict], dict[tuple, list[dict]]]:
    """Placeable records split into roots + children-by-parent, start-sorted.

    A record is placeable when it carries both ``started`` and ``ended``;
    records from traces predating those fields are skipped.  A child whose
    parent never closed (crash mid-span) is promoted to a root.  Child
    edges are strictly *same-process* — a remote parent link (another
    pid) cannot nest in Chrome's per-process lanes; the stitcher renders
    those as flow arrows instead (:mod:`repro.obs.stitch`).
    """
    placeable = [
        dict(record)
        for record in records
        if record.get("started") is not None and record.get("ended") is not None
    ]
    by_key = {_span_key(record): record for record in placeable}
    roots: list[dict] = []
    children: dict[tuple, list[dict]] = {}
    for record in placeable:
        parent_id = record.get("parent_id")
        parent_key = (record.get("pid"), parent_id)
        if (
            parent_id is not None
            and not record.get("remote")
            and parent_key in by_key
        ):
            children.setdefault(parent_key, []).append(record)
        else:
            roots.append(record)
    order = lambda record: (record["started"], record["span_id"])  # noqa: E731
    roots.sort(key=order)
    for siblings in children.values():
        siblings.sort(key=order)
    return roots, children


def _micros(seconds: float, origin: float) -> float:
    return round((seconds - origin) * 1_000_000, 3)


def chrome_trace(records: Iterable[Mapping], *, pid: int | None = 1) -> dict:
    """Render span records as a Chrome trace-event document.

    Returns the JSON-ready object form (``{"traceEvents": [...]}``); dump
    it with :func:`json.dumps` or :func:`chrome_trace_json`.  Each span
    becomes a ``B``/``E`` duration-event pair on its thread's lane, with
    microsecond timestamps rebased to the earliest span start.  Span
    attributes ride along as ``args``.

    ``pid`` stamps every event with one process id (single-process
    traces).  ``pid=None`` uses each record's own ``pid`` field instead
    (falling back to 1 for legacy records) — the multi-process mode the
    stitcher builds on, where each source process gets its own lane
    group in the viewer.
    """
    roots, children = _forest(records)
    events: list[dict] = []
    if not roots:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    origin = min(record["started"] for record in roots)

    def walk(record: Mapping) -> None:
        args: dict = dict(record.get("attrs") or {})
        tid = int(record.get("thread") or 0)
        event_pid = pid if pid is not None else int(record.get("pid") or 1)
        events.append(
            {
                "name": record["name"],
                "ph": "B",
                "ts": _micros(record["started"], origin),
                "pid": event_pid,
                "tid": tid,
                "args": args,
            }
        )
        for child in children.get(_span_key(record), ()):
            walk(child)
        events.append(
            {
                "name": record["name"],
                "ph": "E",
                "ts": _micros(record["ended"], origin),
                "pid": event_pid,
                "tid": tid,
            }
        )

    for root in roots:
        walk(root)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(records: Iterable[Mapping], *, pid: int | None = 1) -> str:
    """:func:`chrome_trace` serialised to a JSON string."""
    return json.dumps(chrome_trace(records, pid=pid))


def folded_stacks(records: Iterable[Mapping]) -> str:
    """Render span records as folded-stack flamegraph text.

    One line per distinct span-name path (``root;child;leaf``), with the
    aggregated **self time** of that path in integer microseconds — the
    span's duration minus its placeable children's durations, clamped at
    zero (clock jitter can make children nominally outlast parents).  Total
    time per path is therefore self + descendants, exactly the flamegraph
    convention, so summing a subtree's lines round-trips the root span's
    duration to microsecond resolution.  Lines are path-sorted for
    deterministic output.
    """
    roots, children = _forest(records)
    self_micros: dict[tuple[str, ...], int] = {}

    def walk(record: Mapping, prefix: tuple[str, ...]) -> None:
        path = prefix + (str(record["name"]),)
        own = record["ended"] - record["started"]
        for child in children.get(_span_key(record), ()):
            own -= child["ended"] - child["started"]
            walk(child, path)
        micros = max(0, round(own * 1_000_000))
        self_micros[path] = self_micros.get(path, 0) + micros

    for root in roots:
        walk(root, ())
    return "".join(
        f"{';'.join(path)} {self_micros[path]}\n"
        for path in sorted(self_micros)
    )


def render_trace(records: Iterable[Mapping], fmt: str) -> str:
    """Render span records in a named export format (CLI plumbing).

    ``fmt`` is ``"chrome"`` or ``"folded"`` — the values of the CLIs'
    ``--trace-format`` flag beyond the JSON-lines default, which streams
    directly and never reaches this function.
    """
    if fmt == "chrome":
        return chrome_trace_json(records) + "\n"
    if fmt == "folded":
        return folded_stacks(records)
    raise ValueError(f"unknown trace format {fmt!r}")


def parse_folded(text: str) -> dict[tuple[str, ...], int]:
    """Inverse of :func:`folded_stacks`: path tuple → self microseconds."""
    out: dict[tuple[str, ...], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        out[tuple(stack.split(";"))] = out.get(tuple(stack.split(";")), 0) + int(value)
    return out
