"""Critical-path extraction: gating edges, conservation, slack.

The load-bearing invariant everywhere: the on-path segments telescope —
waits + durations sum to the end-to-end latency within 1e-9 s — so the
attribution partitions latency instead of double-counting it.
"""

import dataclasses
import gzip
import os
import pickle

import pytest

from repro.core import LlmNpuEngine
from repro.core.pipeline import clear_prepared_graphs
from repro.core.service import ServedRequest
from repro.eval.service_eval import (
    batched_golden_service,
    service_golden_records,
)
from repro.eval.diff_eval import golden_baseline_critpath_json
from repro.eval.report import results_dir
from repro.eval.whatif_eval import golden_critpath_json
from repro.hw.sim import Task
from repro.hw.trace import Trace, TraceEvent
from repro.obs import (
    CRITPATH_SCHEMA,
    CritPathError,
    critical_path,
    critpath_doc,
    narrative_lines,
    request_critical_path,
    validate_critical_path,
)
from repro.obs.critical_path import (
    PathSegment,
    SlackRecord,
    _EventIndex,
    _ScheduleAnchor,
)


def trace_of(*events):
    trace = Trace()
    for task_id, proc, start, end, tag in events:
        trace.add(TraceEvent(task_id=task_id, proc=proc,
                             start_s=start, end_s=end, tag=tag))
    return trace


class TestExtraction:
    def test_serial_chain_is_fully_on_path(self):
        trace = trace_of(("a", "p", 0.0, 1.0, "x"),
                         ("b", "p", 1.0, 2.5, "y"),
                         ("c", "p", 2.5, 3.0, "z"))
        path = critical_path(trace)
        assert [s.task_id for s in path.segments] == ["a", "b", "c"]
        assert path.segments[0].edge == "origin"
        # same-processor serialization outranks schedule inference
        assert all(s.edge == "resource" for s in path.segments[1:])
        assert path.e2e_s == 3.0
        assert path.work_s == 3.0 and path.wait_s == 0.0
        assert not path.slack

    def test_idle_gap_becomes_wait(self):
        trace = trace_of(("a", "p", 0.0, 1.0, ""),
                         ("b", "p", 2.0, 3.0, ""))
        path = critical_path(trace)
        assert path.segments[1].wait_s == 1.0
        assert path.work_s == 2.0 and path.wait_s == 1.0
        assert path.work_s + path.wait_s == path.e2e_s

    def test_dep_edges_with_task_list(self):
        trace = trace_of(("a", "p1", 0.0, 1.0, ""),
                         ("b", "p2", 1.0, 2.0, ""))
        tasks = [Task(task_id="a", proc="p1", duration_s=1.0),
                 Task(task_id="b", proc="p2", duration_s=1.0,
                      deps=("a",))]
        path = critical_path(trace, tasks=tasks)
        assert [s.task_id for s in path.segments] == ["a", "b"]
        assert path.segments[1].edge == "dep"

    def test_off_path_event_gets_slack(self):
        # d runs in parallel and nothing downstream depends on it: it
        # could finish as late as the makespan without gating
        trace = trace_of(("a", "p1", 0.0, 1.0, ""),
                         ("b", "p1", 1.0, 3.0, ""),
                         ("d", "p2", 0.0, 0.5, ""))
        path = critical_path(trace)
        assert [s.task_id for s in path.segments] == ["a", "b"]
        assert len(path.slack) == 1
        rec = path.slack[0]
        assert rec.task_id == "d"
        assert rec.slack_s == pytest.approx(2.5, abs=1e-12)

    def test_empty_trace_rejected(self):
        with pytest.raises(CritPathError, match="empty trace"):
            critical_path(Trace())

    def test_by_proc_and_by_tag_partition_work(self):
        trace = trace_of(("a", "p1", 0.0, 1.0, "x"),
                         ("b", "p2", 1.0, 2.0, "x"),
                         ("c", "p1", 2.0, 3.5, "y"))
        path = critical_path(trace)
        assert sum(path.by_proc().values()) == pytest.approx(path.work_s)
        assert sum(path.by_tag().values()) == pytest.approx(path.work_s)
        assert path.by_tag() == {"x": 2.0, "y": 1.5}


class TestRows:
    """Segments and slack records are tuples that serialize as before."""

    SEGMENT = PathSegment("sg1.qkv", "npu", "sg1", 0.25, 1.5, 0.125, "dep")
    SLACK = SlackRecord("sg2.ffn", "cpu", "sg2", 0.5, 0.75, 0.0625)

    def test_segment_to_dict_is_fields_plus_duration(self):
        seg = self.SEGMENT
        assert seg.to_dict() == {**seg._asdict(),
                                 "duration_s": seg.end_s - seg.start_s}
        assert seg.duration_s == 1.25

    def test_slack_to_dict_is_fields(self):
        assert self.SLACK.to_dict() == self.SLACK._asdict()

    def test_segment_is_a_comparable_picklable_tuple(self):
        seg = self.SEGMENT
        assert seg == PathSegment(*seg) == tuple(seg)
        assert seg != seg._replace(wait_s=0.0)
        assert hash(seg) == hash(tuple(seg))
        again = pickle.loads(pickle.dumps(seg))
        assert again == seg and type(again) is PathSegment


class TestValidation:
    def make_doc(self):
        trace = trace_of(("a", "p", 0.0, 1.0, ""),
                         ("b", "p", 1.0, 2.0, ""))
        return critical_path(trace).to_dict()

    def test_broken_chain_rejected(self):
        doc = self.make_doc()
        doc["segments"][1]["start_s"] += 0.5
        doc["segments"][1]["end_s"] += 0.5
        with pytest.raises(CritPathError, match="previous end"):
            validate_critical_path(doc)

    def test_conservation_violation_rejected(self):
        doc = self.make_doc()
        doc["e2e_s"] += 1e-6
        with pytest.raises(CritPathError, match="end-to-end"):
            validate_critical_path(doc)

    def test_unknown_edge_rejected(self):
        doc = self.make_doc()
        doc["segments"][0]["edge"] = "telepathy"
        with pytest.raises(CritPathError, match="unknown edge"):
            validate_critical_path(doc)

    def test_negative_slack_rejected(self):
        doc = self.make_doc()
        doc["slack"] = [{"task_id": "z", "proc": "p", "tag": "t",
                         "start_s": 0.0, "end_s": 1.0, "slack_s": -1.0}]
        with pytest.raises(CritPathError, match="negative slack"):
            validate_critical_path(doc)

    def test_sub_tolerance_residual_accepted(self):
        doc = self.make_doc()
        doc["e2e_s"] += 1e-12
        validate_critical_path(doc)


def _shift_second(path):
    late = path.segments[1]
    return dataclasses.replace(path, segments=(
        path.segments[0],
        late._replace(start_s=late.start_s + 0.5,
                      end_s=late.end_s + 0.5)))


#: The hostile cases above, applied to a CriticalPath object.
HOSTILE_PATHS = {
    "broken chain": (_shift_second, "previous end"),
    "conservation residual": (
        lambda p: dataclasses.replace(p, e2e_s=p.e2e_s + 1e-6),
        "end-to-end"),
    "unknown edge": (
        lambda p: dataclasses.replace(p, segments=(
            p.segments[0]._replace(edge="telepathy"),
            *p.segments[1:])),
        "unknown edge"),
    "negative slack": (
        lambda p: dataclasses.replace(p, slack=(SlackRecord(
            task_id="z", proc="p", tag="t", start_s=0.0, end_s=1.0,
            slack_s=-1.0),)),
        "negative slack"),
}


class TestObjectDictParity:
    """The validator reads a CriticalPath's fields directly and a saved
    path's keys; both forms must get the same verdict."""

    @pytest.mark.parametrize("corrupt, match", HOSTILE_PATHS.values(),
                             ids=list(HOSTILE_PATHS))
    def test_same_verdict_on_object_and_dict(self, corrupt, match):
        path = corrupt(critical_path(trace_of(("a", "p", 0.0, 1.0, ""),
                                              ("b", "p", 1.0, 2.0, ""))))
        messages = []
        for form in (path, path.to_dict()):
            with pytest.raises(CritPathError, match=match) as exc:
                validate_critical_path(form)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


class TestEngineTimeline:
    @pytest.fixture(scope="class")
    def engine(self):
        return LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")

    def test_prefill_trace_conserves(self, engine):
        report = engine.prefill(256)
        path = critical_path(report.trace, source="prefill 256")
        assert path.e2e_s == report.trace.makespan_s
        # critical_path() self-validates; re-assert on the dict form
        validate_critical_path(path.to_dict())
        assert 0 < len(path.segments) <= path.n_events
        assert len(path.segments) + len(path.slack) <= path.n_events

    def test_doc_shape_and_narrative(self, engine):
        path = critical_path(engine.prefill(128).trace, source="p128")
        doc = critpath_doc([path], source="unit")
        assert doc["schema"] == CRITPATH_SCHEMA
        assert doc["n_paths"] == 1
        assert doc["totals"]["work_s"] == pytest.approx(path.work_s)
        lines = narrative_lines(path, top=3)
        assert "critical path — p128" in lines[0]
        assert any("gating segments" in line for line in lines)

    def test_doc_requires_paths(self):
        with pytest.raises(CritPathError, match="at least one"):
            critpath_doc([])


# -- the per-schedule cache behind request_critical_path ----------------------

#: Every engine decode backend, plus the NPU: as a decode processor it
#: makes the first decode step gated over a resource edge.
DECODE_BACKENDS = ("cpu", "gpu", "npu")


def completed(service):
    return [r for r in service.requests
            if r.status == "completed" and r.report is not None]


def with_copied_trace(record):
    """The record with a prefill trace of equal but new events, which
    the cached structure must not be used for."""
    prefill = record.report.prefill
    trace = Trace([e._replace() for e in prefill.trace.events])
    report = dataclasses.replace(
        record.report, prefill=dataclasses.replace(prefill, trace=trace))
    return dataclasses.replace(record, report=report)


class TestScheduleCache:
    @pytest.mark.parametrize("service", [
        *(pytest.param(lambda s=s: service_golden_records(seed=s),
                       id=f"golden-seed{s}") for s in range(10)),
        pytest.param(batched_golden_service, id="batched"),
    ])
    def test_cached_path_equals_generic_path(self, service):
        for record in completed(service()):
            copied = with_copied_trace(record)
            for backend in DECODE_BACKENDS:
                assert request_critical_path(
                    record, decode_backend=backend).to_dict() == \
                    request_critical_path(
                        copied, decode_backend=backend).to_dict()

    def test_mutated_trace_gets_its_own_path(self):
        service = service_golden_records(seed=42)
        groups = {}
        for record in completed(service):
            groups.setdefault(id(record.report.prefill.facts),
                              []).append(record)
        mutated, sibling = next(g for g in groups.values() if len(g) > 1)[:2]
        before = request_critical_path(sibling).to_dict()
        trace = mutated.report.prefill.trace
        trace.add(TraceEvent(task_id="injected", proc="dsp", start_s=0.0,
                             end_s=trace.makespan_s / 2, tag="inject"))
        path = request_critical_path(mutated)
        assert "injected" in {r.task_id for r in path.slack}
        assert path.to_dict() == request_critical_path(
            with_copied_trace(mutated)).to_dict()
        assert request_critical_path(sibling).to_dict() == before

    def test_requests_sharing_a_memo_entry_share_one_index(self,
                                                           monkeypatch):
        clear_prepared_graphs()
        builds = []
        build = _EventIndex.__init__

        def counting(index, events, deps):
            builds.append(len(events))
            build(index, events, deps)

        monkeypatch.setattr(_EventIndex, "__init__", counting)
        service = service_golden_records(seed=42)
        groups = {}
        for record in completed(service):
            groups.setdefault(id(record.report.prefill.facts),
                              []).append(record)
        shared = max(groups.values(), key=len)
        assert len(shared) > 1
        paths = [request_critical_path(r) for r in shared]
        assert len(builds) == 1
        facts = shared[0].report.prefill.facts
        anchor = facts.derive((_ScheduleAnchor, "cpu"),
                              lambda f: pytest.fail("anchor rebuilt"))
        assert anchor.index is facts.derive(
            _EventIndex, lambda f: pytest.fail("index rebuilt"))
        prefill_chains = {tuple(s.task_id for s in p.segments
                                if s.proc != "service" and s.tag != "decode")
                          for p in paths}
        assert len(prefill_chains) == 1

    def test_zero_output_tokens_is_attributed(self):
        engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
        report = engine.infer(300, 0)
        record = ServedRequest(request_id=0, model="Qwen1.5-1.8B",
                               arrival_s=0.5, start_s=1.0,
                               finish_s=1.0 + report.e2e_latency_s,
                               report=report)
        path = request_critical_path(record)
        hw = critical_path(report.timeline())
        assert [s.tag for s in path.segments[:1]] == ["queued"]
        assert [s.task_id for s in path.segments[1:]] == \
            [s.task_id for s in hw.segments]
        assert not any(s.tag == "decode" for s in path.segments)
        assert [r.task_id for r in path.slack] == \
            [r.task_id for r in hw.slack]
        assert path.n_events == len(report.prefill.trace.events)
        assert path.e2e_s == record.finish_s - record.arrival_s


# -- committed goldens: an oracle written by an earlier extractor ------------


def _committed(name):
    with gzip.open(os.path.join(results_dir(), "json", name), "rt") as f:
        return f.read()


class TestCommittedGoldens:
    """Live documents equal the committed ones byte for byte (the files
    end in the writer's newline)."""

    def test_golden_critpath_matches_live(self):
        assert _committed("GOLDEN_critpath.json.gz") == \
            golden_critpath_json(seed=42) + "\n"

    def test_golden_diff_baseline_matches_live(self):
        assert _committed("GOLDEN_diff_baseline.json.gz") == \
            golden_baseline_critpath_json() + "\n"
