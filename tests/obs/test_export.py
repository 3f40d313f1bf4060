"""Chrome trace-event and folded-stack exporters."""

import json

from repro import obs
from repro.obs.export import (
    chrome_trace,
    chrome_trace_json,
    folded_stacks,
    parse_folded,
    render_trace,
)


def _record_spans():
    """A small real trace: root > (scan, rollup > groupby)."""
    sink = obs.InMemorySink()
    tracer = obs.Tracer(sink)
    with tracer.span("search"):
        with tracer.span("scan", node="<B0, Z0>"):
            pass
        with tracer.span("rollup", groups=42):
            with tracer.span("groupby"):
                pass
    return [span.to_dict() for span in sink.spans]


class TestChromeTrace:
    def test_b_e_events_nest_properly(self):
        doc = chrome_trace(_record_spans())
        events = doc["traceEvents"]
        # Replay the events against a stack per (pid, tid): every E must
        # close the innermost open B of the same name.
        stacks = {}
        for event in events:
            assert event["ph"] in ("B", "E")
            key = (event["pid"], event["tid"])
            stack = stacks.setdefault(key, [])
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack and stack[-1] == event["name"]
                stack.pop()
        assert all(not stack for stack in stacks.values())

    def test_timestamps_rebased_and_ordered_per_span(self):
        doc = chrome_trace(_record_spans())
        events = doc["traceEvents"]
        assert min(event["ts"] for event in events) == 0.0
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 4
        # Event stream order is non-decreasing in ts within each lane.
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_attrs_and_counters_ride_in_args(self):
        """A span's attributes are its ``args``; spans carry no counters."""
        doc = chrome_trace(_record_spans())
        scan_b = next(
            e for e in doc["traceEvents"]
            if e["name"] == "scan" and e["ph"] == "B"
        )
        assert scan_b["args"]["node"] == "<B0, Z0>"
        rollup_b = next(
            e for e in doc["traceEvents"]
            if e["name"] == "rollup" and e["ph"] == "B"
        )
        assert rollup_b["args"] == {"groups": 42}

    def test_json_form_parses(self):
        doc = json.loads(chrome_trace_json(_record_spans()))
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"

    def test_zero_duration_spans_stay_nested(self):
        # Hand-built records with *identical* timestamps: ts-sorting would
        # scramble these; the structural walk must not.
        records = [
            {"span_id": 1, "parent_id": None, "name": "outer",
             "started": 5.0, "ended": 5.0, "thread": 0},
            {"span_id": 2, "parent_id": 1, "name": "inner",
             "started": 5.0, "ended": 5.0, "thread": 0},
        ]
        events = chrome_trace(records)["traceEvents"]
        assert [(e["name"], e["ph"]) for e in events] == [
            ("outer", "B"), ("inner", "B"), ("inner", "E"), ("outer", "E"),
        ]

    def test_orphaned_children_promote_to_roots(self):
        records = [
            {"span_id": 2, "parent_id": 99, "name": "lost",
             "started": 1.0, "ended": 2.0, "thread": 0},
        ]
        events = chrome_trace(records)["traceEvents"]
        assert [(e["name"], e["ph"]) for e in events] == [
            ("lost", "B"), ("lost", "E"),
        ]

    def test_empty_trace(self):
        assert chrome_trace([]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }


class TestFoldedStacks:
    def test_paths_and_self_time_round_trip_durations(self):
        records = _record_spans()
        folded = parse_folded(folded_stacks(records))
        assert set(folded) == {
            ("search",),
            ("search", "scan"),
            ("search", "rollup"),
            ("search", "rollup", "groupby"),
        }
        # Flamegraph invariant: summing every line of the tree recovers
        # the root's wall-clock duration to microsecond resolution.
        root = next(r for r in records if r["parent_id"] is None)
        total = sum(folded.values())
        expected = (root["ended"] - root["started"]) * 1e6
        assert abs(total - expected) <= len(folded)  # ±1µs rounding each

    def test_self_time_clamped_non_negative(self):
        # Child nominally outlasting its parent (clock jitter) must not
        # produce a negative self-time line.
        records = [
            {"span_id": 1, "parent_id": None, "name": "p",
             "started": 0.0, "ended": 1.0, "thread": 0},
            {"span_id": 2, "parent_id": 1, "name": "c",
             "started": 0.0, "ended": 1.5, "thread": 0},
        ]
        folded = parse_folded(folded_stacks(records))
        assert folded[("p",)] == 0
        assert folded[("p", "c")] == 1_500_000

    def test_repeated_paths_aggregate(self):
        records = [
            {"span_id": 1, "parent_id": None, "name": "scan",
             "started": 0.0, "ended": 0.001, "thread": 0},
            {"span_id": 2, "parent_id": None, "name": "scan",
             "started": 0.002, "ended": 0.004, "thread": 0},
        ]
        folded = parse_folded(folded_stacks(records))
        assert folded == {("scan",): 3000}

    def test_output_is_path_sorted(self):
        lines = folded_stacks(_record_spans()).splitlines()
        paths = [line.rpartition(" ")[0] for line in lines]
        assert paths == sorted(paths)


class TestRenderTrace:
    def test_dispatch(self):
        records = _record_spans()
        assert json.loads(render_trace(records, "chrome"))["traceEvents"]
        assert parse_folded(render_trace(records, "folded"))

    def test_unknown_format_raises(self):
        try:
            render_trace([], "svg")
        except ValueError as error:
            assert "svg" in str(error)
        else:
            raise AssertionError("expected ValueError")
