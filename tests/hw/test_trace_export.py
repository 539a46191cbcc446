"""Tests for Chrome-trace export of hardware schedules.

A :class:`~repro.hw.trace.Trace` reaches Perfetto through the one
exporter: ``add_trace_spans`` puts its events on a tracer, one thread
per processor, and ``to_chrome_trace`` / ``save_chrome_trace`` write it.
"""

import json
import os

import pytest

from repro.hw.trace import Trace, TraceEvent
from repro.obs import (
    ObservabilityError,
    Tracer,
    add_trace_spans,
    save_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
)


def make_trace():
    trace = Trace()
    trace.add(TraceEvent("a", "npu", 0.0, 0.001, tag="sg1"))
    trace.add(TraceEvent("b", "cpu", 0.0, 0.002, tag="sg2.float"))
    trace.add(TraceEvent("c", "npu", 0.001, 0.003, tag="sg3"))
    return trace


def traced(trace):
    tracer = Tracer()
    add_trace_spans(tracer, trace, "hw")
    return tracer


def export(trace):
    return to_chrome_trace(traced(trace))


def thread_tids(events):
    return {e["args"]["name"]: e["tid"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"}


class TestChromeTrace:
    def test_one_complete_event_per_task(self):
        events = export(make_trace())
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3

    def test_thread_metadata(self):
        events = export(make_trace())
        assert set(thread_tids(events)) == {"cpu", "npu"}
        procs = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert procs == ["hw"]

    def test_microsecond_timestamps(self):
        events = export(make_trace())
        c = next(e for e in events if e.get("name") == "c")
        assert c["ts"] == 1000.0
        assert c["dur"] == 2000.0

    def test_tids_match_processor(self):
        events = export(make_trace())
        a = next(e for e in events if e.get("name") == "a")
        assert a["tid"] == thread_tids(events)["npu"]

    def test_save_is_valid_json(self, tmp_path):
        path = os.path.join(tmp_path, "traces", "run.json")
        save_chrome_trace(path, traced(make_trace()))
        with open(path) as f:
            data = json.load(f)
        assert isinstance(data, list)
        assert any(e.get("ph") == "X" for e in data)
        validate_chrome_trace(data)

    def test_engine_trace_exports(self, tmp_path):
        from repro.core import LlmNpuEngine
        report = LlmNpuEngine.build(
            "Qwen1.5-1.8B", "Redmi K70 Pro"
        ).prefill(256)
        path = os.path.join(tmp_path, "prefill.json")
        save_chrome_trace(path, traced(report.trace))
        with open(path) as f:
            events = json.load(f)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(report.trace.events)

    def test_save_is_deterministic(self, tmp_path):
        """Equal traces serialize to byte-identical files."""
        p1 = os.path.join(tmp_path, "a.json")
        p2 = os.path.join(tmp_path, "b.json")
        save_chrome_trace(p1, traced(make_trace()))
        save_chrome_trace(p2, traced(make_trace()))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_untagged_events_export_as_task_cat(self):
        trace = Trace()
        trace.add(TraceEvent("plain", "npu", 0.0, 0.001))
        events = export(trace)
        plain = next(e for e in events if e.get("name") == "plain")
        assert plain["cat"] == "task"


class TestChromeRoundTrip:
    """What a saved hardware trace holds when read back."""

    def test_reload_matches_counts_and_durations(self, tmp_path):
        trace = make_trace()
        path = os.path.join(tmp_path, "rt.json")
        save_chrome_trace(path, traced(trace))
        with open(path) as f:
            events = json.load(f)
        procs = {tid: name for name, tid in thread_tids(events).items()}
        again = sorted((e for e in events if e["ph"] == "X"),
                       key=lambda e: e["name"])
        assert len(again) == len(trace.events)
        for a, b in zip(sorted(trace.events, key=lambda e: e.task_id),
                        again):
            assert a.task_id == b["name"]
            assert a.proc == procs[b["tid"]]
            assert a.tag == b["cat"]
            assert abs(a.duration_s - b["dur"] / 1e6) < 1e-12

    def test_cat_buckets_match_busy_by_tag(self):
        """Trace-file categories and ``busy_by_tag`` agree on bucket
        names, untagged events included."""
        trace = make_trace()
        trace.add(TraceEvent("plain", "cpu", 0.002, 0.004))
        by_cat = {}
        for e in export(trace):
            if e["ph"] == "X":
                by_cat[e["cat"]] = by_cat.get(e["cat"], 0.0) + e["dur"]
        by_tag = trace.busy_by_tag()
        assert set(by_cat) == set(by_tag)
        for tag, busy_s in by_tag.items():
            assert abs(by_cat[tag] / 1e6 - busy_s) < 1e-12

    def test_missing_process_metadata_rejected(self):
        events = [{"name": "x", "cat": "task", "ph": "X", "pid": 1,
                   "tid": 3, "ts": 0.0, "dur": 1.0}]
        with pytest.raises(ObservabilityError, match="no process_name"):
            validate_chrome_trace(events)


class TestTraceMetricsEdgeCases:
    def test_validate_serial_accepts_back_to_back(self):
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.0, 0.001))
        trace.add(TraceEvent("b", "npu", 0.001, 0.002))
        trace.validate_serial()  # touching endpoints are not an overlap

    def test_validate_serial_rejects_overlap(self):
        from repro.errors import SchedulingError
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.0, 0.002))
        trace.add(TraceEvent("b", "npu", 0.001, 0.003))
        with pytest.raises(SchedulingError, match="overlap"):
            trace.validate_serial()

    def test_validate_serial_ignores_other_processors(self):
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.0, 0.002))
        trace.add(TraceEvent("b", "cpu", 0.001, 0.003))
        trace.validate_serial()

    def test_bubble_rate_zero_span(self):
        """All-instant events: span 0 -> bubble rate defined as 0."""
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.5, 0.5))
        assert trace.bubble_rate("npu") == 0.0

    def test_bubble_rate_empty_processor(self):
        assert Trace().bubble_rate("npu") == 0.0
        trace = make_trace()
        assert trace.bubble_rate("gpu") == 0.0

    def test_busy_by_tag_groups_untagged_under_task(self):
        trace = Trace()
        trace.add(TraceEvent("a", "npu", 0.0, 0.001))
        trace.add(TraceEvent("b", "npu", 0.001, 0.003, tag="sync"))
        trace.add(TraceEvent("c", "cpu", 0.0, 0.002))
        by_tag = trace.busy_by_tag()
        assert "" not in by_tag
        assert abs(by_tag["task"] - 0.003) < 1e-12
        assert abs(by_tag["sync"] - 0.002) < 1e-12
