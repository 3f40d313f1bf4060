"""Tests for span sinks and the JSON-lines round trip."""

import io
import json

from repro.obs import (
    InMemorySink,
    JsonLinesSink,
    NullSink,
    Tracer,
    read_json_lines,
)


class TestInMemorySink:
    def test_named_and_count(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("scan"):
            pass
        with tracer.span("rollup"):
            pass
        with tracer.span("scan"):
            pass
        assert sink.count("scan") == 2
        assert sink.count("rollup") == 1
        assert sink.count("missing") == 0
        assert [span.name for span in sink.named("scan")] == ["scan", "scan"]

    def test_roots(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        roots = sink.roots()
        assert [span.name for span in roots] == ["outer"]

    def test_clear(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("scan"):
            pass
        sink.clear()
        assert sink.spans == []


class TestNullSink:
    def test_discards(self):
        tracer = Tracer(NullSink())
        with tracer.span("scan") as sp:
            pass  # nothing to assert beyond "does not raise"
        assert sp.ended is not None


class TestJsonLinesRoundTrip:
    def _trace_to_lines(self) -> list[str]:
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        tracer = Tracer(sink)
        with tracer.span("bench.run", algorithm="Basic Incognito"):
            with tracer.span("scan") as scan:
                scan.set(node="<B0, Z0>")
            with tracer.span("rollup"):
                pass
        sink.close()
        return stream.getvalue().splitlines()

    def test_one_json_object_per_line(self):
        lines = self._trace_to_lines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            # Readers use ``depth``, ``duration_seconds``, the ``unix_*``
            # instants, ``remote``, ``pid`` and ``thread`` by name; a span
            # carries no counters.
            assert set(record) == {
                "trace_id", "span_id", "parent_id", "remote", "pid",
                "process", "depth", "name", "started", "ended",
                "unix_started", "unix_ended", "thread",
                "duration_seconds", "attrs",
            }

    def test_read_json_lines_rebuilds_tree(self):
        records = read_json_lines(self._trace_to_lines())
        by_name = {record["name"]: record for record in records}
        root = by_name["bench.run"]
        assert root["parent_id"] is None
        assert [c["name"] for c in root["children"]] == ["scan", "rollup"]
        scan = by_name["scan"]
        assert scan["attrs"] == {"node": "<B0, Z0>"}
        assert scan["depth"] == 1

    def test_read_json_lines_ignores_blank_lines(self):
        lines = self._trace_to_lines()
        lines.insert(1, "")
        lines.append("   ")
        assert len(read_json_lines(lines)) == 3

    def test_orphan_children_stay_roots(self):
        # A parent that never closed (e.g. truncated trace) leaves its
        # children as roots rather than raising.
        lines = [json.dumps({"span_id": 5, "parent_id": 99, "depth": 1,
                             "name": "orphan", "duration_seconds": 0.0,
                             "attrs": {}, "counters": {}})]
        records = read_json_lines(lines)
        assert records[0]["name"] == "orphan"
        assert records[0]["children"] == []

    def test_non_serialisable_attrs_fall_back_to_str(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        tracer = Tracer(sink)
        with tracer.span("scan", node=object()) as sp:
            assert sp
        sink.flush()
        record = json.loads(stream.getvalue())
        assert isinstance(record["attrs"]["node"], str)

    def test_emission_is_buffered_until_flush(self):
        # Satellite: no write+flush syscall pair per span.  Closed spans
        # sit in the buffer (within the flush interval) until an explicit
        # flush, a full buffer, or close pushes them out.
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        tracer = Tracer(sink)
        with tracer.span("scan"):
            pass
        assert stream.getvalue() == ""
        tracer.flush()
        assert [json.loads(line)["name"]
                for line in stream.getvalue().splitlines()] == ["scan"]

    def test_full_buffer_forces_flush(self):
        from repro.obs.sinks import FLUSH_EVERY_SPANS

        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        tracer = Tracer(sink)
        for _ in range(FLUSH_EVERY_SPANS):
            with tracer.span("scan"):
                pass
        lines = stream.getvalue().splitlines()
        assert len(lines) == FLUSH_EVERY_SPANS

    def test_close_flushes_remaining_buffer(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        tracer = Tracer(sink)
        with tracer.span("rollup"):
            pass
        sink.close()
        assert [json.loads(line)["name"]
                for line in stream.getvalue().splitlines()] == ["rollup"]

    def test_open_owns_and_closes_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink.open(str(path))
        tracer = Tracer(sink)
        with tracer.span("scan"):
            pass
        sink.close()
        assert sink.stream.closed
        records = read_json_lines(path.read_text().splitlines())
        assert [r["name"] for r in records] == ["scan"]
