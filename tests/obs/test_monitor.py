"""SLO monitor: burn-rate math, the alert state machine, determinism."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    ALERTS_SCHEMA,
    DEFAULT_RULES,
    BurnRateRule,
    MonitorError,
    RequestEvent,
    SloMonitor,
    SloSpec,
    validate_timeline_doc,
)


def make_event(t_s, request_id=0, tier="interactive", status="completed",
               turnaround_s=1.0, energy_j=1.0):
    return RequestEvent(t_s=t_s, request_id=request_id, tier=tier,
                        status=status, turnaround_s=turnaround_s,
                        queueing_s=0.0, energy_j=energy_j)


def feed(monitor, events):
    for event in events:
        monitor._requests.append(event)


AVAIL = SloSpec(name="avail", objective="availability", target=0.9)
FAST = BurnRateRule(name="fast", long_window_s=10.0, short_window_s=2.0,
                    max_burn_rate=4.0)


class TestSpecValidation:
    def test_slo_spec_rejects_bad_config(self):
        with pytest.raises(MonitorError, match="objective"):
            SloSpec(name="x", objective="vibes", target=0.9)
        with pytest.raises(MonitorError, match="target"):
            SloSpec(name="x", objective="availability", target=1.0)
        with pytest.raises(MonitorError, match="threshold"):
            SloSpec(name="x", objective="latency", target=0.9)
        with pytest.raises(MonitorError, match="name"):
            SloSpec(name="", objective="availability", target=0.9)

    def test_rule_rejects_bad_config(self):
        with pytest.raises(MonitorError, match="short window"):
            BurnRateRule(name="r", long_window_s=2.0, short_window_s=5.0,
                         max_burn_rate=1.0)
        with pytest.raises(MonitorError, match="max_burn_rate"):
            BurnRateRule(name="r", long_window_s=5.0, short_window_s=2.0,
                         max_burn_rate=0.0)
        with pytest.raises(MonitorError, match="for_s"):
            BurnRateRule(name="r", long_window_s=5.0, short_window_s=2.0,
                         max_burn_rate=1.0, for_s=-1.0)

    def test_monitor_rejects_duplicates_and_empties(self):
        with pytest.raises(MonitorError, match="at least one SloSpec"):
            SloMonitor([])
        with pytest.raises(MonitorError, match="duplicate SLO"):
            SloMonitor([AVAIL, AVAIL])
        with pytest.raises(MonitorError, match="at least one rule"):
            SloMonitor([AVAIL], rules=[])

    def test_compliance_row(self):
        slo = SloSpec(name="avail", objective="availability", target=0.75)
        empty = slo.compliance(0, 0)
        assert empty == {**slo.to_dict(), "n_events": 0, "n_bad": 0,
                         "good_fraction": 1.0, "budget_burned": 0.0,
                         "met": True}
        # met flips exactly at the target: 3 good of 4 is 0.75
        at_target = slo.compliance(4, 1)
        assert at_target["good_fraction"] == 0.75
        assert at_target["budget_burned"] == 1.0
        assert at_target["met"]
        below = slo.compliance(4, 2)
        assert below["good_fraction"] == 0.5
        assert below["budget_burned"] == 2.0
        assert not below["met"]

    def test_objective_matching(self):
        latency = SloSpec(name="lat", objective="latency", target=0.9,
                          tier="interactive", threshold=2.0)
        # latency only counts completed requests of its tier
        assert latency.matches(make_event(0.0))
        assert not latency.matches(make_event(0.0, tier="background"))
        assert not latency.matches(make_event(0.0, status="rejected"))
        assert latency.is_bad(make_event(0.0, turnaround_s=2.5))
        assert not latency.is_bad(make_event(0.0, turnaround_s=2.0))
        # availability counts every terminal status
        assert AVAIL.matches(make_event(0.0, status="rejected"))
        assert AVAIL.is_bad(make_event(0.0, status="rejected"))
        assert not AVAIL.is_bad(make_event(0.0))


class TestBurnRateStateMachine:
    def test_storm_fires_then_resolves(self):
        monitor = SloMonitor([AVAIL], rules=[FAST])
        # 5 good events, then a burst of failures, then recovery
        events = [make_event(t, request_id=i)
                  for i, t in enumerate([0.0, 1.0, 2.0, 3.0, 4.0])]
        events += [make_event(5.0 + 0.5 * j, request_id=10 + j,
                              status="failed") for j in range(6)]
        events += [make_event(20.0 + t, request_id=30 + t)
                   for t in range(12)]
        feed(monitor, events)
        doc = monitor.timeline()
        validate_timeline_doc(doc)
        assert len(doc["incidents"]) == 1
        incident = doc["incidents"][0]
        assert incident["state"] == "resolved"
        assert incident["firing_s"] is not None
        assert incident["pending_s"] <= incident["firing_s"] \
            <= incident["resolved_s"]
        # at the last failure the 10s long window holds all 5 good
        # events plus the 6 failures: (6/11) bad / 10% budget
        assert incident["peak_burn_rate"] == pytest.approx(6 / 11 / 0.1)
        assert {link["kind"] for link in incident["links"]} == {"request"}

    def test_for_s_dwell_delays_firing(self):
        dwell = BurnRateRule(name="dwell", long_window_s=10.0,
                             short_window_s=2.0, max_burn_rate=4.0,
                             for_s=1.5)
        monitor = SloMonitor([AVAIL], rules=[dwell])
        feed(monitor, [make_event(t * 0.5, request_id=t, status="failed")
                       for t in range(8)])
        doc = monitor.timeline()
        incident = doc["incidents"][0]
        assert incident["firing_s"] - incident["pending_s"] >= 1.5

    def test_short_burst_never_escalates_past_pending(self):
        dwell = BurnRateRule(name="dwell", long_window_s=10.0,
                             short_window_s=2.0, max_burn_rate=4.0,
                             for_s=5.0)
        monitor = SloMonitor([AVAIL], rules=[dwell])
        feed(monitor, [make_event(0.0, 0, status="failed"),
                       make_event(0.5, 1, status="failed"),
                       make_event(3.0, 2), make_event(4.0, 3),
                       make_event(5.0, 4), make_event(6.0, 5)])
        doc = monitor.timeline()
        # condition lapsed before for_s elapsed: pending -> resolved
        assert all(inc["firing_s"] is None for inc in doc["incidents"])

    def test_no_alert_without_both_windows(self):
        # old failures outside the short window must not keep firing
        monitor = SloMonitor([AVAIL], rules=[FAST])
        feed(monitor, [make_event(0.0, 0, status="failed"),
                       make_event(0.1, 1, status="failed")]
             + [make_event(5.0 + t, 10 + t) for t in range(5)])
        doc = monitor.timeline()
        for incident in doc["incidents"]:
            if incident["firing_s"] is not None:
                assert incident["firing_s"] <= 0.1

    def test_ingestion_order_is_irrelevant(self):
        events = [make_event(t * 0.7, request_id=t,
                             status="failed" if t % 3 else "completed")
                  for t in range(30)]
        forward = SloMonitor([AVAIL], rules=DEFAULT_RULES)
        feed(forward, events)
        backward = SloMonitor([AVAIL], rules=DEFAULT_RULES)
        feed(backward, list(reversed(events)))
        assert json.dumps(forward.timeline(), sort_keys=True) == \
            json.dumps(backward.timeline(), sort_keys=True)


class TestObservationHooks:
    def test_attach_consumes_service_stream(self):
        from repro.eval.service_eval import service_golden_records
        monitor = SloMonitor([AVAIL])
        service = service_golden_records(monitor=monitor)
        assert monitor.n_events == len(service.requests)
        # completed requests feed the per-tier sketches
        n_completed = sum(1 for r in service.requests
                          if r.status == "completed")
        total = sum(s.count
                    for key, s in monitor.sketches.items()
                    if key.startswith("turnaround_s/"))
        assert total == n_completed

    def test_fault_listener_sees_only_injected_draws(self):
        from repro.hw.sim import FaultInjector, FaultSpec
        monitor = SloMonitor([AVAIL])
        injector = FaultInjector(FaultSpec(
            script=(None, "transient", None, "permanent")))
        injector.add_listener(monitor.observe_fault)
        for t in range(4):
            injector.draw(now_s=float(t))
        assert monitor.n_faults == 2
        assert [f.kind for f in monitor._faults] == ["transient",
                                                     "permanent"]

    def test_suspended_draws_notify_nobody(self):
        from repro.hw.sim import FaultInjector, FaultSpec
        monitor = SloMonitor([AVAIL])
        injector = FaultInjector(FaultSpec(transient_rate=1.0))
        injector.add_listener(monitor.observe_fault)
        with injector.suspended():
            injector.draw(now_s=0.0)
        assert monitor.n_faults == 0

    def test_non_callable_hooks_rejected(self):
        from repro.core import EngineConfig, LlmService
        from repro.errors import EngineError, SchedulingError
        from repro.hw.sim import FaultInjector
        service = LlmService("Redmi K70 Pro", EngineConfig())
        with pytest.raises(EngineError, match="callable"):
            service.add_observer("not callable")
        with pytest.raises(SchedulingError, match="callable"):
            FaultInjector().add_listener(42)


class TestTimelineValidation:
    def _doc(self, **overrides):
        doc = {
            "schema": ALERTS_SCHEMA,
            "source": "service",
            "start_s": 0.0, "end_s": 10.0,
            "n_request_events": 1, "n_fault_events": 0,
            "slos": [dict(AVAIL.to_dict(), n_events=1, n_bad=1,
                          good_fraction=0.0, budget_burned=10.0,
                          met=False)],
            "rules": [FAST.to_dict()],
            "incidents": [{
                "slo": "avail", "rule": "fast", "severity": "page",
                "state": "resolved", "pending_s": 1.0, "firing_s": 2.0,
                "resolved_s": 3.0, "peak_burn_rate": 5.0,
                "links": [{"kind": "request", "request_id": 3,
                           "track": "req 00003", "t_s": 1.0,
                           "status": "failed"}],
            }],
        }
        doc.update(overrides)
        return doc

    def test_valid_doc_passes(self):
        validate_timeline_doc(self._doc())

    def test_rejects_wrong_schema(self):
        with pytest.raises(MonitorError, match="schema"):
            validate_timeline_doc(self._doc(schema="repro.alerts/v0"))

    def test_rejects_unknown_names_and_states(self):
        doc = self._doc()
        doc["incidents"][0]["slo"] = "ghost"
        with pytest.raises(MonitorError, match="unknown SLO"):
            validate_timeline_doc(doc)
        doc = self._doc()
        doc["incidents"][0]["state"] = "screaming"
        with pytest.raises(MonitorError, match="unknown state"):
            validate_timeline_doc(doc)

    def test_rejects_interval_disorder(self):
        doc = self._doc()
        doc["incidents"][0]["firing_s"] = 0.5
        with pytest.raises(MonitorError, match="firing_s < pending_s"):
            validate_timeline_doc(doc)
        doc = self._doc()
        doc["incidents"][0]["resolved_s"] = 1.5
        with pytest.raises(MonitorError, match="resolved_s precedes"):
            validate_timeline_doc(doc)

    def test_rejects_firing_without_links(self):
        doc = self._doc()
        doc["incidents"][0]["links"] = []
        with pytest.raises(MonitorError, match="no cross-links"):
            validate_timeline_doc(doc)

    def test_rejects_overlap_same_source_allows_other_source(self):
        overlapping = dict(self._doc()["incidents"][0], pending_s=2.5,
                           firing_s=2.6, resolved_s=3.5)
        doc = self._doc()
        doc["incidents"].append(overlapping)
        with pytest.raises(MonitorError, match="overlap"):
            validate_timeline_doc(doc)
        # the same interval on a different device is legal
        doc = self._doc()
        doc["incidents"].append(dict(overlapping, source="other-device"))
        validate_timeline_doc(doc)


class TestStepTelemetry:
    def _step(self, index, queued, batch_tokens=64, n_inflight=2,
              utilization=0.25):
        return {"index": index, "start_s": float(index),
                "end_s": float(index) + 1.0, "n_inflight": n_inflight,
                "batch_tokens": batch_tokens, "prefill_tokens": 32,
                "decode_tokens": batch_tokens - 32,
                "budget_utilization": utilization,
                "queued_ids": queued, "queue_depths": {}, "items": []}

    def test_observe_step_feeds_sketches(self):
        monitor = SloMonitor([AVAIL])
        monitor.observe_step(self._step(0, [1], batch_tokens=100))
        monitor.observe_step(self._step(1, [1, 2], batch_tokens=200))
        assert monitor.n_steps == 2
        assert monitor.sketches["batch_tokens/step"].mean == 150.0
        assert monitor.sketches["queue_depth/step"].mean == 1.5
        assert monitor.sketches["inflight/step"].count == 2
        assert monitor.sketches["budget_utilization/step"].count == 2

    def test_decision_counts(self):
        from repro.obs import Decision
        monitor = SloMonitor([AVAIL])
        for action in ("admitted", "chunk-scheduled", "chunk-scheduled"):
            monitor.observe_decision(Decision(
                t_s=0.0, request_id=0, action=action, tier="x"))
        assert monitor.decision_counts() == {"admitted": 1,
                                             "chunk-scheduled": 2}

    def test_starvation_detector(self):
        monitor = SloMonitor([AVAIL])
        for i in range(10):
            monitor.observe_step(self._step(i, [5]))
        monitor.observe_step(self._step(10, []))
        assert monitor.starved_requests(min_steps=8) == [(5, 10)]
        assert monitor.starved_requests(min_steps=11) == []
        with pytest.raises(MonitorError, match="min_steps"):
            monitor.starved_requests(min_steps=0)

    def test_scheduler_summary_empty_stream(self):
        summary = SloMonitor([AVAIL]).scheduler_summary()
        assert summary["n_steps"] == 0
        assert summary["decision_counts"] == {}
        assert summary["starved"] == []

    def test_scheduler_summary_blocks(self):
        from repro.obs import STARVATION_MIN_STEPS
        monitor = SloMonitor([AVAIL])
        for i in range(STARVATION_MIN_STEPS):
            monitor.observe_step(self._step(i, [3]))
        summary = monitor.scheduler_summary()
        assert summary["n_steps"] == STARVATION_MIN_STEPS
        assert summary["batch_tokens"]["mean"] == 64.0
        assert summary["queue_depth"]["max"] == 1.0
        assert summary["budget_utilization"]["mean"] == 0.25
        assert summary["starved"] == [
            {"request_id": 3, "streak_steps": STARVATION_MIN_STEPS}]

    def test_attach_registers_step_observer(self):
        from repro.core import BatchConfig, EngineConfig, LlmService

        # attach() must hook the step stream: a batched run feeds the
        # monitor's step sketches and decision counts live
        monitor = SloMonitor([AVAIL])
        service = LlmService(
            "Redmi K70 Pro", EngineConfig(), scheduler="priority",
            batching=BatchConfig(max_batch_tokens=256,
                                 max_concurrency=4))
        monitor.attach(service)
        service.enqueue("Qwen1.5-1.8B", 96, 4, arrival_s=0.0)
        service.enqueue("Qwen1.5-1.8B", 64, 4, arrival_s=0.0)
        service.run()
        assert monitor.n_steps == len(service.steps) > 0
        mix = monitor.decision_counts()
        assert mix.get("chunk-scheduled", 0) > 0
        assert mix.get("completed", 0) == 2


def _step(prefill, decode, queued, inflight, util):
    """Minimal repro.steps/v1-shaped record for the monitor."""
    return {
        "prefill_tokens": prefill,
        "decode_tokens": decode,
        "queued_ids": queued,
        "n_inflight": inflight,
        "budget_utilization": util,
    }


step_records = st.lists(
    st.builds(
        _step,
        st.integers(0, 512),
        st.integers(0, 64),
        st.lists(st.sampled_from(["r1", "r2", "r3", "r4"]), unique=True,
                 max_size=4),
        st.integers(0, 8),
        st.one_of(st.none(), st.floats(0.0, 1.0, allow_nan=False)),
    ),
    max_size=30,
)


class TestObserveSteps:
    """``observe_steps`` is a loop over ``observe_step``: one ingestion
    path, so a batch leaves exactly the state of its records fed one
    at a time."""

    @given(step_records)
    def test_matches_sequential_observe_step(self, records):
        batched = SloMonitor([AVAIL])
        sequential = SloMonitor([AVAIL])
        assert batched.observe_steps(iter(records)) == len(records)
        for record in records:
            sequential.observe_step(record)
        assert ({k: s.to_dict() for k, s in batched.sketches.items()}
                == {k: s.to_dict() for k, s in sequential.sketches.items()})
        assert batched.scheduler_summary(starvation_min_steps=1) == \
            sequential.scheduler_summary(starvation_min_steps=1)

    def test_all_none_budget_creates_no_sketch(self):
        monitor = SloMonitor([AVAIL])
        monitor.observe_steps([_step(1, 1, [], 0, None)] * 3)
        assert not any("budget_utilization" in key
                       for key in monitor.sketches)

    def test_empty_batch_creates_no_sketches(self):
        monitor = SloMonitor([AVAIL])
        assert monitor.observe_steps([]) == 0
        assert not monitor.sketches
        assert monitor.n_steps == 0
