"""Span recording, self time, and restoring the patched call sites."""

from __future__ import annotations

import itertools

import tracing
import workloads


def test_self_time_of_nested_wrapped_calls(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    recorder = tracing.Recorder()

    def inner(rows):
        return rows

    wrapped_inner = recorder.wrap("inner", inner, lambda a, result: a["rows"])

    def outer():
        wrapped_inner(3)
        wrapped_inner(rows=4)

    recorder.wrap("outer", outer, None)()
    # Clock reads: outer opens at 0, inner spans [1, 2] and [3, 4], outer closes at 5.
    totals = recorder.totals()
    assert totals["outer"] == {"calls": 1, "inclusive_s": 5.0, "self_s": 3.0, "amount": 0}
    assert totals["inner"] == {"calls": 2, "inclusive_s": 2.0, "self_s": 2.0, "amount": 7}
    assert [span[3] for span in recorder.spans] == [-1, 0, 0]


def _call_sites():
    sites = {}
    for module_name, path, _, _ in tracing.PATCHES:
        owner, attribute = tracing._resolve(module_name, path)
        sites[module_name, path] = vars(owner)[attribute]
    return sites


def test_every_patched_attribute_is_restored_after_a_traced_run(tmp_path):
    before = _call_sites()
    run = workloads.Run(seed=1, seconds=0, scratch=tmp_path, trace=True)
    workloads.landsend_append(run, rows=1_500, qi=3, base_rows=1_000, appends=2)
    assert _call_sites() == before
    names = {span[0] for span in run.recorder.spans}
    assert {"scan", "generalize", "groupby", "rollup", "merge", "lattice",
            "batch", "append", "search"} <= names
    metrics = run.report()["metrics"]
    assert metrics["scan.calls"] > 0 and metrics["merge.rows"] > 0
    assert 0 < metrics["incremental.hit_ratio"] <= 1


def test_patched_restores_even_when_the_body_raises():
    before = _call_sites()
    try:
        with tracing.patched(tracing.Recorder()):
            assert _call_sites() != before
            raise KeyError("boom")
    except KeyError:
        pass
    assert _call_sites() == before
