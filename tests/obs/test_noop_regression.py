"""The no-op guarantee: tracing observes, it never perturbs.

The acceptance bar for the observability layer is that the golden
workload's results are *byte-identical* with tracing on, off, or
defaulted — spans are emitted alongside the service's clock arithmetic,
never folded into it, and fault draws are consumed identically.
"""

import pytest

from repro.eval.service_eval import (
    service_golden_records,
    service_golden_snapshot,
)
from repro.eval.fleet import FLEET_SLOS, fault_storm_monitor
from repro.obs import MetricsRegistry, SloMonitor, Tracer

SEED = 42


@pytest.fixture(scope="module")
def untraced():
    return service_golden_records(seed=SEED)


@pytest.fixture(scope="module")
def traced():
    return service_golden_records(seed=SEED, tracer=Tracer(),
                                  metrics=MetricsRegistry())


@pytest.fixture(scope="module")
def monitored():
    return service_golden_records(seed=SEED,
                                  monitor=SloMonitor(FLEET_SLOS))


class TestTracingIsPureObservation:
    def test_served_records_identical(self, untraced, traced):
        assert [r.key() for r in untraced.requests] == \
            [r.key() for r in traced.requests]

    def test_full_precision_timings_identical(self, untraced, traced):
        for a, b in zip(untraced.requests, traced.requests):
            assert a.arrival_s == b.arrival_s
            assert a.start_s == b.start_s
            assert a.finish_s == b.finish_s
            assert a.service_s == b.service_s

    def test_summary_metrics_identical(self, untraced, traced):
        ma, mb = untraced.metrics(), traced.metrics()
        assert ma.span_s == mb.span_s
        assert ma.npu_busy_s == mb.npu_busy_s
        assert ma.total_energy_j == mb.total_energy_j
        for tier in ma.tiers:
            ta, tb = ma.tier(tier), mb.tier(tier)
            assert ta == tb

    def test_snapshot_byte_identical_to_untraced(self, traced):
        # service_golden_snapshot runs untraced; the traced service must
        # produce the very same canonical dump
        lines = []
        for r in traced.requests:
            lines.append(
                f"{r.request_id} {r.tier} {r.status} retries={r.retries} "
                f"arrival={r.arrival_s!r} start={r.start_s!r} "
                f"finish={r.finish_s!r}"
            )
        m = traced.metrics()
        lines.append(f"completed={m.n_completed} rejected={m.n_rejected} "
                     f"timeout={m.n_timeout} failed={m.n_failed} "
                     f"retries={m.n_retries}")
        lines.append(f"span={m.span_s!r} npu_busy={m.npu_busy_s!r} "
                     f"energy={m.total_energy_j!r}")
        assert "\n".join(lines) == service_golden_snapshot(SEED)

    def test_tracer_actually_observed(self, traced):
        assert len(traced.tracer.events) > 0
        assert len(traced.metrics_registry) > 0

    def test_default_service_uses_null_tracer(self, untraced):
        assert untraced.tracer.enabled is False
        assert len(untraced.tracer.events) == 0
        # metrics always accumulate (cheap counters), tracing is opt-in
        assert len(untraced.metrics_registry) > 0


class TestMonitoringIsPureObservation:
    """The SLO monitor rides the same observer hooks — same guarantee."""

    def test_served_records_identical(self, untraced, monitored):
        assert [r.key() for r in untraced.requests] == \
            [r.key() for r in monitored.requests]
        for a, b in zip(untraced.requests, monitored.requests):
            assert a.arrival_s == b.arrival_s
            assert a.finish_s == b.finish_s

    def test_snapshot_byte_identical_to_untraced(self, monitored):
        lines = []
        for r in monitored.requests:
            lines.append(
                f"{r.request_id} {r.tier} {r.status} retries={r.retries} "
                f"arrival={r.arrival_s!r} start={r.start_s!r} "
                f"finish={r.finish_s!r}"
            )
        m = monitored.metrics()
        lines.append(f"completed={m.n_completed} rejected={m.n_rejected} "
                     f"timeout={m.n_timeout} failed={m.n_failed} "
                     f"retries={m.n_retries}")
        lines.append(f"span={m.span_s!r} npu_busy={m.npu_busy_s!r} "
                     f"energy={m.total_energy_j!r}")
        assert "\n".join(lines) == service_golden_snapshot(SEED)

    def test_storm_timeline_deterministic(self):
        assert fault_storm_monitor(seed=SEED).timeline_json() == \
            fault_storm_monitor(seed=SEED).timeline_json()

    def test_storm_firing_alerts_cross_link(self):
        doc = fault_storm_monitor(seed=SEED).timeline()
        firing = [inc for inc in doc["incidents"]
                  if inc["firing_s"] is not None]
        assert firing
        for incident in firing:
            assert incident["links"]
            kinds = {link["kind"] for link in incident["links"]}
            assert kinds <= {"request", "fault"}


class TestLiveRegistryConsistency:
    def test_live_counters_match_summary(self, traced):
        """The registry the service fills while running agrees with the
        after-the-fact summarize_service() accounting."""
        reg = traced.metrics_registry
        m = traced.metrics()
        total = sum(
            s["value"] for s in reg.snapshot()
            if s["name"] == "service_requests_total"
        )
        assert int(total) == m.n_requests
        for tier in m.tiers:
            t = m.tier(tier)
            assert int(reg.value("service_requests_total", tier=tier,
                                 status="completed")) == t.n_completed
            hist = reg.peek("service_turnaround_s", tier=tier)
            if t.n_completed:
                assert hist.count == t.n_completed
                assert hist.percentile(50) == t.p50_turnaround_s
                assert hist.percentile(95) == t.p95_turnaround_s

    def test_admission_decisions_counted(self, traced):
        reg = traced.metrics_registry
        admitted = reg.value("service_admission_total",
                             decision="admitted")
        rejected = reg.value("service_admission_total",
                             decision="rejected")
        m = traced.metrics()
        assert int(rejected) == m.n_rejected
        assert admitted > 0
