"""Exporter tests: unified Perfetto timeline and JSONL event log."""

import gzip
import json

import pytest

from repro.errors import SchedulingError
from repro.eval.service_eval import service_golden_records
from repro.obs import (
    MetricsRegistry,
    Tracer,
    export_service_trace,
    jsonl_records,
    read_jsonl,
    save_chrome_trace,
    service_timeline,
    to_chrome_trace,
    validate_timeline,
    write_jsonl,
    write_text,
)


@pytest.fixture(scope="module")
def traced_service():
    return service_golden_records(seed=42, tracer=Tracer(),
                                  metrics=MetricsRegistry())


class TestChromeExport:
    def test_stable_pid_tid_mapping(self):
        tr = Tracer()
        tr.span("a", proc="service", thread="t2", start_s=0.0, end_s=1.0)
        tr.span("b", proc="service", thread="t1", start_s=0.0, end_s=1.0)
        tr.span("c", proc="hw m", thread="npu", start_s=0.0, end_s=1.0)
        events = to_chrome_trace(tr)
        procs = {e["args"]["name"]: e["pid"] for e in events
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert procs == {"hw m": 1, "service": 2}  # sorted proc order
        threads = {(e["pid"], e["args"]["name"]): e["tid"]
                   for e in events
                   if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert threads[(2, "t1")] == 1
        assert threads[(2, "t2")] == 2

    def test_spans_and_instants_export(self):
        tr = Tracer()
        tr.span("s", proc="p", thread="t", start_s=0.0, end_s=0.5)
        tr.instant("i", proc="p", thread="t", ts_s=0.25)
        phases = {e["ph"] for e in to_chrome_trace(tr)}
        assert phases == {"M", "X", "i"}

    def test_save_deterministic_bytes(self, tmp_path):
        def build():
            tr = Tracer()
            tr.span("s", proc="p", thread="t", start_s=0.0, end_s=0.5,
                    zebra=1, alpha=2)
            tr.instant("i", proc="p", thread="t", ts_s=0.25)
            return tr
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_chrome_trace(p1, build())
        save_chrome_trace(p2, build())
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_validate_timeline_catches_overlap(self):
        tr = Tracer()
        tr.span("a", proc="p", thread="t", start_s=0.0, end_s=2.0)
        tr.span("b", proc="p", thread="t", start_s=1.0, end_s=3.0)
        with pytest.raises(SchedulingError, match="overlap"):
            validate_timeline(to_chrome_trace(tr))

    def test_validate_timeline_allows_parallel_tracks(self):
        tr = Tracer()
        tr.span("a", proc="p", thread="t1", start_s=0.0, end_s=2.0)
        tr.span("b", proc="p", thread="t2", start_s=1.0, end_s=3.0)
        validate_timeline(to_chrome_trace(tr))


class TestUnifiedServiceTimeline:
    def test_contains_both_layers(self, traced_service):
        merged = service_timeline(traced_service)
        procs = {proc for proc, _thread in merged.tracks()}
        assert "service" in procs
        assert any(p.startswith("hw ") for p in procs)
        names = {e.name for e in merged.spans}
        # service-level lifecycle spans...
        assert "queued" in names
        assert "prefill" in names
        assert "decode" in names
        # ...and simulated hw task events on the same timeline
        assert any(n.startswith("c0.l") for n in names)
        assert any(n.startswith("decode.t") for n in names)

    def test_validates_serial_per_track(self, traced_service):
        validate_timeline(to_chrome_trace(service_timeline(
            traced_service)))

    def test_hw_events_aligned_to_service_clock(self, traced_service):
        merged = service_timeline(traced_service)
        for record in traced_service.requests:
            if record.status != "completed":
                continue
            hw = [e for e in merged.spans
                  if e.proc == f"hw {record.model}"
                  and e.arg("request_id") == record.request_id]
            assert hw
            t0 = record.finish_s - record.report.e2e_latency_s
            assert min(e.start_s for e in hw) >= t0 - 1e-9
            assert max(e.end_s for e in hw) <= record.finish_s + 1e-9

    def test_export_writes_file(self, traced_service, tmp_path):
        path = str(tmp_path / "t" / "unified.json")
        events = export_service_trace(traced_service, path)
        assert json.load(open(path)) == events

    def test_fault_draws_visible(self, traced_service):
        faults = [e for e in traced_service.tracer.instants
                  if e.cat == "fault"]
        assert faults
        assert any(e.name == "fault.transient" for e in faults)
        draws = [e.arg("draw") for e in faults]
        assert draws == sorted(draws)  # consumed in draw order


class TestJsonl:
    def test_round_trip(self, tmp_path, traced_service):
        path = str(tmp_path / "log" / "events.jsonl")
        n = write_jsonl(path, tracer=traced_service.tracer,
                        metrics=traced_service.metrics_registry)
        records = read_jsonl(path)
        assert len(records) == n
        types = {r["type"] for r in records}
        assert types == {"span", "instant", "metric"}
        # trace records first (emission order), metrics last
        kinds = [r["type"] for r in records]
        first_metric = kinds.index("metric")
        assert all(k == "metric" for k in kinds[first_metric:])

    def test_records_match_events(self, traced_service):
        records = jsonl_records(tracer=traced_service.tracer)
        assert len(records) == len(traced_service.tracer.events)

    def test_schema_checker_accepts(self, tmp_path, traced_service,
                                    capsys):
        from repro.cli import main
        path = str(tmp_path / "events.jsonl")
        write_jsonl(path, tracer=traced_service.tracer,
                    metrics=traced_service.metrics_registry)
        trace_path = str(tmp_path / "trace.json")
        export_service_trace(traced_service, trace_path)
        assert main(["validate", path, trace_path]) == 0, \
            capsys.readouterr().err
        out = capsys.readouterr().out
        assert "JSONL event log" in out and "Chrome trace" in out


def make_step(index=0, start_s=0.0, end_s=0.1, n_inflight=1,
              prefill_tokens=128, decode_tokens=0,
              queue_depths=None, kv_budget_bytes=None,
              kv_reserved_bytes=0):
    """A repro.steps/v1 step dict with only the keys the counter
    exporter reads."""
    return {
        "index": index, "start_s": start_s, "end_s": end_s,
        "n_inflight": n_inflight, "prefill_tokens": prefill_tokens,
        "decode_tokens": decode_tokens,
        "queue_depths": {} if queue_depths is None else queue_depths,
        "kv_budget_bytes": kv_budget_bytes,
        "kv_reserved_bytes": kv_reserved_bytes,
    }


class TestStepCounterEdgeCases:
    def test_empty_step_log_emits_nothing(self):
        from repro.obs.export import step_counter_events
        assert step_counter_events([]) == []
        # and an empty steps list never creates a counter process
        tr = Tracer()
        tr.span("s", proc="p", thread="t", start_s=0.0, end_s=0.5)
        with_empty = to_chrome_trace(tr, steps=[])
        without = to_chrome_trace(tr)
        assert with_empty == without

    def test_single_step_emits_all_three_tracks(self):
        from repro.obs.export import step_counter_events
        events = step_counter_events(
            [make_step(queue_depths={"interactive": 2},
                       kv_budget_bytes=1024, kv_reserved_bytes=256)])
        assert [e["name"] for e in events] == \
            ["queue depth", "batch occupancy", "kv headroom"]
        assert all(e["ph"] == "C" for e in events)
        headroom = events[-1]["args"]["bytes"]
        assert headroom == 1024 - 256

    def test_zero_inflight_idle_step_counts_as_zero(self):
        # a fully idle step (nothing queued, nothing running) must still
        # sample every track with explicit zeros, not drop the sample
        from repro.obs.export import step_counter_events
        events = step_counter_events(
            [make_step(n_inflight=0, prefill_tokens=0, decode_tokens=0)])
        queue, batch, kv = events
        assert queue["args"] == {"total": 0}
        assert batch["args"] == {"prefill_tokens": 0, "decode_tokens": 0}
        # without a budget the reservation itself is the track
        assert kv["name"] == "kv reserved"
        assert kv["args"] == {"bytes": 0}

    def test_counters_never_trip_overlap_validation(self):
        # 'C' events carry no duration; two steps sharing a timestamp
        # with a span on the same pid must not look like an overlap
        tr = Tracer()
        tr.span("s", proc="service", thread="t", start_s=0.0, end_s=1.0)
        events = to_chrome_trace(
            tr, steps=[make_step(index=0, start_s=0.0, end_s=0.5),
                       make_step(index=1, start_s=0.5, end_s=1.0)])
        validate_timeline(events)


class TestOnPathMarking:
    @staticmethod
    def hw_task_spans(merged):
        # per-request task events only — the engine's "prepare"
        # lifecycle span also lives on the hw process but has no
        # per-request critical path to sit on
        return [e for e in merged.spans if e.proc.startswith("hw ")
                and e.arg("request_id") is not None]

    def test_default_timeline_has_no_on_path_arg(self, traced_service):
        hw = self.hw_task_spans(service_timeline(traced_service))
        assert hw
        assert all(e.arg("on_path") is None for e in hw)

    def test_critpath_marks_every_hw_span(self, traced_service):
        merged = service_timeline(traced_service, critpath=True)
        hw = self.hw_task_spans(merged)
        marks = [e.arg("on_path") for e in hw]
        assert all(isinstance(m, bool) for m in marks)
        # the gating chain is a strict subset of each request's events
        assert any(marks) and not all(marks)

    def test_marking_does_not_change_the_schedule(self, traced_service):
        plain = service_timeline(traced_service)
        marked = service_timeline(traced_service, critpath=True)
        assert [(e.name, e.start_s, e.end_s) for e in plain.spans] == \
            [(e.name, e.start_s, e.end_s) for e in marked.spans]


class TestGzipTransparency:
    """`.gz` suffix routing: every reader/writer round-trips through
    `open_text`, and equal text compresses to equal bytes anywhere."""

    def test_jsonl_gzip_round_trip(self, tmp_path, traced_service):
        plain = tmp_path / "events.jsonl"
        packed = tmp_path / "events.jsonl.gz"
        write_jsonl(str(plain), tracer=traced_service.tracer,
                    metrics=traced_service.metrics_registry)
        write_jsonl(str(packed), tracer=traced_service.tracer,
                    metrics=traced_service.metrics_registry)
        assert read_jsonl(str(packed)) == read_jsonl(str(plain))
        with gzip.open(packed, "rb") as fh:
            assert fh.read(1) == b"{"

    def test_chrome_trace_gzip_round_trip(self, tmp_path, traced_service):
        plain = tmp_path / "trace.json"
        packed = tmp_path / "trace.json.gz"
        export_service_trace(traced_service, str(plain))
        export_service_trace(traced_service, str(packed))
        with open(plain) as fh:
            want = json.load(fh)
        with gzip.open(packed, "rt") as fh:
            assert json.load(fh) == want

    def test_gzip_bytes_independent_of_path_and_clock(self, tmp_path):
        from repro.obs import open_text
        payloads = []
        for name in ("first.gz", "renamed-elsewhere.gz"):
            path = tmp_path / name
            with open_text(str(path), "w") as fh:
                fh.write("golden text\n")
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_steplog_save_load_gzip(self, tmp_path):
        from repro.eval.service_eval import golden_steplog
        from repro.obs import load_doc
        steplog = golden_steplog(seed=42, batched=True)
        plain = tmp_path / "steps.json"
        packed = tmp_path / "steps.json.gz"
        write_text(str(plain), steplog.to_json())
        write_text(str(packed), steplog.to_json())
        assert load_doc(str(packed)) == load_doc(str(plain))


class TestDeltaMarking:
    """`deltas=` stamps per-task regression milliseconds onto hw spans
    (fed from `repro.obs.diff.segment_deltas`)."""

    def test_deltas_stamped_on_matching_spans(self, traced_service):
        # hw spans are named by task id — the same ids segment_deltas
        # keys its {task_id: delta_s} map with
        hw = TestOnPathMarking.hw_task_spans(
            service_timeline(traced_service))
        assert hw
        target = hw[0].name
        marked = service_timeline(traced_service,
                                  deltas={target: 0.0123})
        stamped = [e for e in marked.spans
                   if e.arg("delta_ms") is not None]
        assert stamped
        assert all(abs(e.arg("delta_ms") - 12.3) < 1e-9 for e in stamped)
        assert all(e.name == target for e in stamped)

    def test_no_deltas_means_no_stamp(self, traced_service):
        merged = service_timeline(traced_service)
        assert all(e.arg("delta_ms") is None for e in merged.spans)

    def test_marking_with_deltas_keeps_the_schedule(self, traced_service):
        plain = service_timeline(traced_service)
        marked = service_timeline(traced_service, deltas={"x": 1.0})
        assert [(e.name, e.start_s, e.end_s) for e in plain.spans] == \
            [(e.name, e.start_s, e.end_s) for e in marked.spans]
