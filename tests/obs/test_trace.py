"""Tests for trace spans, nesting, and the module-level tracer plumbing."""

import gc
import io
import threading
import weakref

from repro import obs
from repro.obs import NULL_SPAN, InMemorySink, JsonLinesSink, Tracer


class _Marker:
    """An attribute value that can be weakly referenced."""


class TestSpanNesting:
    def test_parent_child_linkage(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.depth == 1
        assert outer.depth == 0

    def test_children_emitted_before_parents(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [span.name for span in sink.spans] == ["inner", "outer"]
        assert sink.roots() == [sink.spans[1]]

    def test_siblings_share_parent(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        children = sink.spans[:2]
        assert [child.name for child in children] == ["a", "b"]
        assert all(c.parent_id == outer.span_id for c in children)
        assert all(c.depth == 1 for c in children)

    def test_closed_span_is_not_retained(self):
        """A closed child is the sink's alone, not kept by its open parent."""
        tracer = Tracer(JsonLinesSink(io.StringIO()))
        marker = _Marker()
        ref = weakref.ref(marker)
        with tracer.span("bench.run"):
            with tracer.span("scan", node=marker):
                del marker
            gc.collect()
            assert ref() is None

    def test_current_tracks_innermost(self):
        tracer = Tracer(InMemorySink())
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_timing_is_monotone(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.duration_seconds >= 0
        assert outer.duration_seconds >= inner.duration_seconds

    def test_span_survives_exception(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        try:
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert sink.count("doomed") == 1
        assert tracer.current is None  # stack unwound


class TestCrossThreadSpans:
    def test_parent_ids_stable_across_threads(self):
        """Concurrent threads never cross-link their span trees.

        Each thread opens ``outer > inner`` with a barrier in between, so
        every thread holds an open span while every other thread opens its
        child — the exact interleaving that would corrupt parent ids if
        the span stack were tracer-global instead of per-thread.
        """
        sink = InMemorySink()
        tracer = Tracer(sink)
        num_threads = 4
        barrier = threading.Barrier(num_threads)
        failures: list[str] = []

        def work(index: int) -> None:
            with tracer.span("outer", worker=index) as outer:
                barrier.wait()
                with tracer.span("inner", worker=index) as inner:
                    barrier.wait()
                if inner.parent_id != outer.span_id:
                    failures.append(
                        f"thread {index}: inner parented to "
                        f"{inner.parent_id}, expected {outer.span_id}"
                    )

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert sink.count("outer") == num_threads
        assert sink.count("inner") == num_threads
        # Every inner span links to an outer span of the *same* worker.
        outers = {span.attrs["worker"]: span for span in sink.named("outer")}
        for inner in sink.named("inner"):
            assert inner.parent_id == outers[inner.attrs["worker"]].span_id
        # Span ids are globally unique; thread lanes are dense indices.
        ids = [span.span_id for span in sink.spans]
        assert len(ids) == len(set(ids))
        lanes = {span.thread for span in sink.spans}
        assert lanes == set(range(len(lanes)))

    def test_same_thread_lane_for_outer_and_inner(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.thread == inner.thread


class TestSpanRecording:
    def test_set_attrs(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("scan", node="<B1, Z0>") as sp:
            sp.set(groups=12, dense=True)
        assert sp.attrs == {"node": "<B1, Z0>", "groups": 12, "dense": True}

    def test_to_dict_shape(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("scan", node="root") as sp:
            pass
        record = sp.to_dict()
        assert record["name"] == "scan"
        assert record["span_id"] == sp.span_id
        assert record["parent_id"] is None
        assert record["depth"] == 0
        assert record["attrs"] == {"node": "root"}
        assert "counters" not in record
        assert record["duration_seconds"] >= 0


class TestDisabledTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        sp = tracer.span("anything", expensive="attr")
        assert sp is NULL_SPAN
        assert not sp  # truthiness gate for attr construction
        with sp:
            sp.set(ignored=1)
        assert tracer.current is None  # nothing was pushed

    def test_enabled_span_is_truthy(self):
        tracer = Tracer(InMemorySink())
        with tracer.span("real") as sp:
            assert sp


class TestModuleTracer:
    def test_default_is_disabled(self):
        assert not obs.enabled()
        assert obs.span("anything") is NULL_SPAN

    def test_use_tracer_installs_and_restores(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        previous = obs.get_tracer()
        with obs.use_tracer(tracer):
            assert obs.get_tracer() is tracer
            assert obs.enabled()
            with obs.span("work"):
                pass
        assert obs.get_tracer() is previous
        assert sink.count("work") == 1

    def test_use_tracer_restores_on_exception(self):
        previous = obs.get_tracer()
        try:
            with obs.use_tracer(Tracer(InMemorySink())):
                raise ValueError("boom")
        except ValueError:
            pass
        assert obs.get_tracer() is previous

    def test_set_tracer_returns_previous(self):
        first = obs.get_tracer()
        replacement = Tracer(enabled=False)
        returned = obs.set_tracer(replacement)
        try:
            assert returned is first
            assert obs.get_tracer() is replacement
        finally:
            obs.set_tracer(first)
