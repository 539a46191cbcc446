"""Run-to-run diffing: alignment, statuses, conservation, narratives.

The acceptance bar: a self-diff of any golden run comes back
``identical`` with every delta exactly zero, and the injected-sg1
slowdown pair attributes its e2e delta to per-segment contributions
that telescope within 1e-9 s with the slowed operator on top.
"""

import gzip
import json

import pytest

from repro.eval.diff_eval import (
    INJECTED_TAG,
    diff_attribution_table,
    diff_summary_table,
    explain_regression,
    golden_scenarios,
    injected_slowdown_docs,
)
from repro.obs import (
    DIFF_SCHEMA,
    DIFF_STATUSES,
    DIFF_TOL_S,
    DiffError,
    diff_critpath_docs,
    diff_docs,
    diff_fleet_docs,
    diff_json,
    diff_narrative,
    diff_profile_docs,
    diff_steps_docs,
    diff_table,
    segment_deltas,
    validate_diff,
)
from repro.obs.schemas import (
    CRITPATH_SCHEMA,
    FLEET_SCHEMA,
    PROFILE_SCHEMA,
    STEPS_SCHEMA,
)


@pytest.fixture(scope="module")
def injected_pair():
    """Capture the baseline/slowdown critpath docs once per module."""
    return injected_slowdown_docs()


@pytest.fixture(scope="module")
def injected_diff(injected_pair):
    base_doc, slow_doc = injected_pair
    return diff_docs(base_doc, slow_doc)


def _critpath_doc(source, paths):
    """A minimal repro.critpath/v1 document for alignment tests."""
    return {"schema": CRITPATH_SCHEMA, "source": source,
            "n_paths": len(paths), "paths": paths, "totals": {}}


def _path(source, segments):
    e2e = sum(s["wait_s"] + s["duration_s"] for s in segments)
    return {"source": source, "origin_s": 0.0, "e2e_s": e2e,
            "n_events": len(segments), "n_segments": len(segments),
            "work_s": sum(s["duration_s"] for s in segments),
            "wait_s": sum(s["wait_s"] for s in segments),
            "by_proc": {}, "by_tag": {}, "segments": segments,
            "slack": []}


def _seg(task_id, tag, duration_s, wait_s=0.0, proc="npu"):
    return {"task_id": task_id, "proc": proc, "tag": tag,
            "start_s": 0.0, "end_s": duration_s,
            "duration_s": duration_s, "wait_s": wait_s, "edge": "dep"}


class TestInjectedSlowdown:
    def test_top_contributor_is_the_injected_operator(self, injected_diff):
        top = injected_diff["top_contributors"][0]
        assert top["tag"] == INJECTED_TAG
        assert top["delta_s"] > 0.0

    def test_deltas_telescope_to_e2e_within_tolerance(self, injected_diff):
        # ACCEPTANCE: per-segment deltas of the aligned request sum to
        # the observed e2e delta within 1e-9 s.
        for req in injected_diff["requests"]:
            attributed = sum(s["delta_s"] for s in req["segments"])
            e2e_delta = req["new_e2e_s"] - req["base_e2e_s"]
            assert abs(attributed - e2e_delta) <= DIFF_TOL_S
            assert abs(req["residual_s"]) <= DIFF_TOL_S
        e2e = injected_diff["e2e"]
        assert e2e["delta_s"] == pytest.approx(e2e["new_s"] - e2e["base_s"])

    def test_not_identical_and_statuses_closed(self, injected_diff):
        assert not injected_diff["identical"]
        assert set(injected_diff["by_status"]) == set(DIFF_STATUSES)
        for req in injected_diff["requests"]:
            assert all(s["status"] in DIFF_STATUSES
                       for s in req["segments"])

    def test_validate_accepts_and_json_roundtrips(self, injected_diff):
        validate_diff(injected_diff)
        text = diff_json(injected_diff)
        assert json.loads(text) == injected_diff
        assert text == diff_json(injected_diff)

    def test_segment_deltas_cover_the_e2e_delta(self, injected_diff):
        deltas = segment_deltas(injected_diff)
        assert deltas
        total = sum(deltas.values())
        assert total == pytest.approx(injected_diff["e2e"]["delta_s"],
                                      abs=DIFF_TOL_S)

    def test_narrative_names_the_operator(self, injected_diff):
        text = "\n".join(diff_narrative(injected_diff))
        assert INJECTED_TAG in text
        assert "ms" in text

    def test_table_renders(self, injected_diff):
        rendered = diff_table(injected_diff).render()
        assert INJECTED_TAG in rendered


class TestSelfDiff:
    def test_self_diff_is_identical(self, injected_pair):
        base_doc, _ = injected_pair
        doc = diff_docs(base_doc, base_doc)
        assert doc["identical"]
        assert doc["e2e"]["delta_s"] == 0.0
        assert doc["only_base"] == [] and doc["only_new"] == []
        for req in doc["requests"]:
            assert req["delta_s"] == 0.0
            assert all(s["status"] == "unchanged"
                       for s in req["segments"])

    def test_self_diff_status_census_is_all_unchanged(self, injected_pair):
        base_doc, _ = injected_pair
        doc = diff_docs(base_doc, base_doc)
        census = doc["by_status"]
        assert census["grew"] == census["shrank"] == 0
        assert census["appeared"] == census["vanished"] == 0
        assert census["unchanged"] > 0


class TestAlignment:
    def test_appeared_and_vanished_segments(self):
        base = _critpath_doc("b", [_path("req", [_seg("t1", "sg1", 0.5)])])
        new = _critpath_doc("n", [_path("req", [_seg("t2", "sg2", 0.7)])])
        doc = diff_critpath_docs(base, new)
        statuses = {s["task_id"]: s["status"]
                    for s in doc["requests"][0]["segments"]}
        assert statuses == {"t2": "appeared", "t1": "vanished"}
        # membership changes still telescope: +0.7 - 0.5 == e2e delta
        assert doc["e2e"]["delta_s"] == pytest.approx(0.2)
        validate_diff(doc)

    def test_unmatched_requests_listed_not_diffed(self):
        base = _critpath_doc("b", [_path("only-base",
                                         [_seg("t1", "sg1", 0.5)])])
        new = _critpath_doc("n", [_path("only-new",
                                        [_seg("t1", "sg1", 0.5)])])
        doc = diff_critpath_docs(base, new)
        assert doc["only_base"] == ["only-base"]
        assert doc["only_new"] == ["only-new"]
        assert doc["n_requests"] == 0
        assert not doc["identical"]

    def test_grew_and_shrank_statuses(self):
        base = _critpath_doc("b", [_path("req", [
            _seg("t1", "sg1", 0.5), _seg("t2", "sg2", 0.3)])])
        new = _critpath_doc("n", [_path("req", [
            _seg("t1", "sg1", 0.8), _seg("t2", "sg2", 0.1)])])
        doc = diff_critpath_docs(base, new)
        statuses = {s["task_id"]: s["status"]
                    for s in doc["requests"][0]["segments"]}
        assert statuses == {"t1": "grew", "t2": "shrank"}
        assert doc["by_stage"]["sg1"] == pytest.approx(0.3)
        assert doc["by_stage"]["sg2"] == pytest.approx(-0.2)

    def test_wait_time_counts_as_gating_time(self):
        # a segment whose duration is unchanged but whose wait grew
        # still attributes the growth (gating time = wait + duration)
        base = _critpath_doc("b", [_path("req", [
            _seg("t1", "sg1", 0.5, wait_s=0.0)])])
        new = _critpath_doc("n", [_path("req", [
            _seg("t1", "sg1", 0.5, wait_s=0.2)])])
        doc = diff_critpath_docs(base, new)
        seg = doc["requests"][0]["segments"][0]
        assert seg["status"] == "grew"
        assert seg["delta_s"] == pytest.approx(0.2)

    def test_duplicate_task_ids_align_by_occurrence(self):
        base = _critpath_doc("b", [_path("req", [
            _seg("t1", "sg1", 0.5), _seg("t1", "sg1", 0.4)])])
        new = _critpath_doc("n", [_path("req", [
            _seg("t1", "sg1", 0.5), _seg("t1", "sg1", 0.9)])])
        doc = diff_critpath_docs(base, new)
        segs = doc["requests"][0]["segments"]
        assert [s["status"] for s in segs] == ["unchanged", "grew"]


class TestValidateDiff:
    def test_rejects_wrong_schema(self):
        with pytest.raises(DiffError):
            validate_diff({"schema": "nope", "kind": "critpath",
                           "identical": True})

    def test_rejects_unknown_kind(self):
        with pytest.raises(DiffError):
            validate_diff({"schema": DIFF_SCHEMA, "kind": "vibes",
                           "identical": True})

    def test_rejects_broken_conservation(self, injected_diff):
        doc = json.loads(diff_json(injected_diff))
        doc["requests"][0]["segments"][0]["delta_s"] += 1.0
        with pytest.raises(DiffError):
            validate_diff(doc)

    def test_rejects_appeared_with_nonzero_base(self):
        base = _critpath_doc("b", [_path("req", [_seg("t1", "sg1", 0.5)])])
        new = _critpath_doc("n", [_path("req", [_seg("t2", "sg2", 0.7)])])
        doc = diff_critpath_docs(base, new)
        for seg in doc["requests"][0]["segments"]:
            if seg["status"] == "appeared":
                seg["base_s"] = 0.1
                seg["delta_s"] = seg["new_s"] - 0.1
        # keep telescoping consistent so only the status rule trips
        req = doc["requests"][0]
        req["attributed_s"] = sum(s["delta_s"] for s in req["segments"])
        req["residual_s"] = req["attributed_s"] - req["delta_s"]
        with pytest.raises(DiffError):
            validate_diff(doc)

    def test_rejects_identical_flag_on_a_moving_diff(self, injected_diff):
        doc = json.loads(diff_json(injected_diff))
        doc["identical"] = True
        with pytest.raises(DiffError):
            validate_diff(doc)

    def test_diff_docs_rejects_schema_mismatch(self, injected_pair):
        base_doc, _ = injected_pair
        with pytest.raises(DiffError):
            diff_docs(base_doc, {"schema": PROFILE_SCHEMA})
        with pytest.raises(DiffError):
            diff_docs({"no": "schema"}, base_doc)
        with pytest.raises(DiffError):
            diff_docs({"schema": "repro.sketch/v1"},
                      {"schema": "repro.sketch/v1"})

    def test_segment_deltas_rejects_non_critpath(self):
        with pytest.raises(DiffError):
            segment_deltas({"kind": "fleet"})


class TestProfileKind:
    @staticmethod
    def _profile(sg1_busy):
        return {
            "schema": PROFILE_SCHEMA, "window_s": 2.0,
            "operators": [
                {"proc": "npu", "tag": "sg1", "n_events": 4,
                 "busy_s": sg1_busy, "ops": 1e9},
                {"proc": "cpu", "tag": "sync", "n_events": 2,
                 "busy_s": 0.1, "ops": 0.0},
            ],
            "processors": [
                {"proc": "npu", "busy_s": sg1_busy, "idle_s": 0.4,
                 "idle_by_cause": {"sync_wait": 0.4}},
                {"proc": "cpu", "busy_s": 0.1, "idle_s": 1.0,
                 "idle_by_cause": {"dependency": 1.0}},
            ],
        }

    def test_operator_growth_is_attributed(self):
        doc = diff_docs(self._profile(1.0), self._profile(1.5))
        assert doc["kind"] == "profile"
        assert not doc["identical"]
        top = doc["operators"][0]
        assert (top["proc"], top["tag"]) == ("npu", "sg1")
        assert top["delta_s"] == pytest.approx(0.5)
        assert top["status"] == "grew"

    def test_self_is_identical(self):
        doc = diff_docs(self._profile(1.0), self._profile(1.0))
        assert doc["identical"]
        assert all(o["status"] == "unchanged" for o in doc["operators"])
        assert diff_table(doc).render()


class TestStepsKind:
    @staticmethod
    def _steps(retry_s, actions):
        return {
            "schema": STEPS_SCHEMA, "source": "probe", "n_steps": 1,
            "n_requests": 1, "n_decisions": len(actions),
            "steps": [{"index": 0, "start_s": 0.0, "end_s": 1.0,
                       "n_inflight": 1, "batch_tokens": 128,
                       "items": [], "queued_ids": [],
                       "queue_depths": {}, "budget_utilization": None}],
            "decisions": [{"t_s": 0.0, "request_id": "r1",
                           "action": a, "tier": "interactive"}
                          for a in actions],
            "requests": [{"request_id": "r1", "status": "completed",
                          "breakdown": {"queue_s": 0.1,
                                        "admission_s": 0.0,
                                        "retry_s": retry_s,
                                        "prefill_s": 0.3,
                                        "decode_s": 0.5,
                                        "turnaround_s": 0.9 + retry_s}}],
        }

    def test_decision_mix_and_breakdown_deltas(self):
        base = self._steps(0.0, ["admit", "dispatch_prefill"])
        new = self._steps(0.4, ["admit", "retry", "dispatch_prefill"])
        doc = diff_docs(base, new)
        assert doc["kind"] == "steps"
        assert not doc["identical"]
        assert doc["decisions"]["retry"]["delta"] == 1
        req = doc["requests"][0]
        assert req["breakdown"]["retry_s"] == pytest.approx(0.4)
        assert req["delta_s"] == pytest.approx(0.4)
        assert diff_table(doc).render()

    def test_self_is_identical(self):
        base = self._steps(0.0, ["admit"])
        assert diff_docs(base, base)["identical"]


class TestFleetKind:
    @staticmethod
    def _fleet(goodput, completed=20):
        return {
            "schema": FLEET_SCHEMA, "seed": 42, "n_devices": 1,
            "devices": [{"name": "dev00", "n_completed": completed,
                         "n_rejected": 1, "n_timeout": 0, "n_failed": 1,
                         "n_faults": 2, "ttft_p50_s": 1.0,
                         "ttft_p95_s": 2.0, "mean_itl_s": 0.05,
                         "goodput_rps": goodput}],
            "percentiles": {"turnaround_s/interactive": {
                "count": 20, "p50": 1.0, "p90": 2.0, "p95": 2.5,
                "p99": 3.0, "max": 4.0}},
            "scheduler": {"n_steps": 10,
                          "decision_counts": {"admit": 20}},
        }

    def test_device_drift_flagged(self):
        doc = diff_docs(self._fleet(1.0), self._fleet(0.8, completed=18))
        assert doc["kind"] == "fleet"
        assert not doc["identical"]
        device = doc["devices"][0]
        assert device["drift"]
        assert device["deltas"]["n_completed"] == -2
        assert device["deltas"]["goodput_rps"] == pytest.approx(-0.2)
        assert diff_table(doc).render()

    def test_self_is_identical(self):
        doc = diff_docs(self._fleet(1.0), self._fleet(1.0))
        assert doc["identical"]
        assert not doc["devices"][0]["drift"]

    def test_none_metrics_compare_by_equality(self):
        base = self._fleet(1.0)
        base["devices"][0]["ttft_p95_s"] = None
        same = json.loads(json.dumps(base))
        assert diff_docs(base, same)["identical"]
        moved = json.loads(json.dumps(base))
        moved["devices"][0]["ttft_p95_s"] = 2.0
        doc = diff_docs(base, moved)
        assert doc["devices"][0]["deltas"]["ttft_p95_s"] == "changed"
        assert doc["devices"][0]["drift"]


class TestEvalSurface:
    def test_attribution_table_gates(self, injected_diff):
        table = diff_attribution_table(injected_diff)
        assert table.rows[0][0] == INJECTED_TAG
        assert table.column("top-contributor hit rate")[0] == 1.0

    def test_summary_table_counts_requests(self, injected_diff):
        table = diff_summary_table(injected_diff)
        assert table.column("requests") == [1.0]

    def test_golden_scenarios_cover_the_diff_benchmark(self):
        scenarios = golden_scenarios()
        assert "diff_attribution" in scenarios
        assert "critpath" in scenarios
        for golden_path, fresh in scenarios.values():
            assert golden_path.endswith(".gz")
            assert callable(fresh)

    def test_explain_regression_unknown_stem_is_none(self):
        assert explain_regression("not-a-benchmark") is None

    def test_explain_regression_self_is_identical(self):
        # the committed golden equals a fresh re-run of its scenario,
        # so explaining an (unreproducible) regression yields an
        # identical diff rather than a spurious attribution
        doc = explain_regression("diff_attribution")
        assert doc is not None
        assert doc["identical"]


class TestGzipRoundTrip:
    def test_diff_json_gzip_round_trip(self, tmp_path, injected_diff):
        from repro.obs import open_text
        path = str(tmp_path / "diff.json.gz")
        with open_text(path, "w") as fh:
            fh.write(diff_json(injected_diff))
        with open_text(path) as fh:
            assert json.load(fh) == injected_diff
        with gzip.open(path, "rb") as fh:
            assert fh.read(1) == b"{"

    def test_gzip_bytes_are_deterministic(self, tmp_path, injected_diff):
        from repro.obs import open_text
        a, b = str(tmp_path / "a.gz"), str(tmp_path / "b.gz")
        for path in (a, b):
            with open_text(path, "w") as fh:
                fh.write(diff_json(injected_diff))
        assert open(a, "rb").read() == open(b, "rb").read()
