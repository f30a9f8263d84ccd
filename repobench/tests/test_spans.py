"""Self time, and joins of coordinator and worker spans by trace id."""

import json
from pathlib import Path

from spans import Recorder, Span, join_by_trace, load, self_times


def test_self_time_is_duration_minus_children():
    spans = [Span("outer", 0.0, 10.0, "a"),
             Span("child", 1.0, 3.0, "b", parent="a"),
             Span("child", 2.0, 4.0, "c", parent="a"),     # overlaps b
             Span("child", 9.0, 12.0, "d", parent="a"),    # runs past outer
             Span("grandchild", 1.5, 2.0, "e", parent="b")]
    selfs = self_times(spans)
    assert selfs["outer"] == [10.0 - 3.0 - 1.0]
    assert sorted(selfs["child"]) == [1.5, 2.0, 3.0]
    assert selfs["grandchild"] == [0.5]


def test_recorder_nests_spans_on_one_thread():
    recorder = Recorder()
    with recorder.span("outer") as outer_id:
        with recorder.span("inner"):
            pass
    inner, outer = recorder.spans
    assert inner.parent == outer_id and outer.parent is None
    assert self_times(recorder.spans)["outer"][0] <= outer.duration


def test_disabled_recorder_keeps_nothing_from_hooks():
    import hooks
    recorder = Recorder()
    recorder.enabled = False
    wrapped = hooks._timed(recorder, "x", lambda: 3)
    assert wrapped() == 3 and recorder.spans == []


def test_coordinator_and_worker_spans_join_by_trace_id(tmp_path: Path):
    coordinator, worker = Recorder(), Recorder()
    worker._prefix = "worker-"
    for trace, (route, handle) in {"t1": (5.0, 3.0), "t2": (4.0, 1.5)}.items():
        coordinator.add("serve.route", 0.0, route, trace=trace)
        worker.add("serve.handle.recommend", 0.5, 0.5 + handle, trace=trace)
    worker.add("serve.handle.events", 0.0, 1.0, trace="only-in-worker")
    coordinator.dump(tmp_path / "c.jsonl")
    worker.dump(tmp_path / "w.jsonl")
    spans, _ = load([tmp_path / "c.jsonl", tmp_path / "w.jsonl"])
    hops = join_by_trace(spans, "serve.route", "serve.handle.")
    assert sorted(hops) == [2.0, 2.5]


def test_recorded_values_survive_a_dump(tmp_path: Path):
    recorder = Recorder()
    recorder.record("serve.segment_mb", 1.5)
    recorder.dump(tmp_path / "s.jsonl")
    _, values = load([tmp_path / "s.jsonl"])
    assert values["serve.segment_mb"] == [1.5]
    assert json.loads((tmp_path / "s.jsonl").read_text().splitlines()[-1])
