"""Property-style tests for the multi-tenant service scheduler."""

import math

import pytest

from repro.core import (
    BACKGROUND_TIER,
    INTERACTIVE_TIER,
    LlmService,
    RequestQueue,
    TierPolicy,
)
from repro.errors import EngineError, SchedulingError
from repro.workloads import sample_workload
from repro.workloads.datasets import EMAIL_REPLY, UI_AUTOMATION

MODEL = "Qwen1.5-1.8B"
DEVICE = "Redmi K70 Pro"

#: Permissive tiers so overload scenarios exercise ordering, not shedding.
OPEN_TIERS = {
    "interactive": TierPolicy("interactive", priority=10),
    "background": TierPolicy("background", priority=0),
}


def overload_service(scheduler="priority", admission=False, tiers=None,
                     n_interactive=8, n_background=6, seed=3):
    """A seeded two-tier overload stream on one engine."""
    svc = LlmService(DEVICE, scheduler=scheduler, admission=admission,
                     tiers=tiers if tiers is not None else OPEN_TIERS)
    interactive = sample_workload(UI_AUTOMATION, n_interactive, seed=seed)
    background = sample_workload(EMAIL_REPLY, n_background, seed=seed + 1)
    for i, s in enumerate(interactive):
        svc.enqueue(MODEL, s.prompt_tokens, s.output_tokens,
                    arrival_s=1.0 + 1.1 * i, tier="interactive")
    for i, s in enumerate(background):
        svc.enqueue(MODEL, s.prompt_tokens, s.output_tokens,
                    arrival_s=0.2 + 0.4 * i, tier="background")
    return svc


class TestPriorityOrdering:
    def test_no_priority_inversion(self):
        """(a) No admitted request starts before a higher-priority admitted
        request that arrived earlier."""
        svc = overload_service()
        records = svc.run()
        started = [r for r in records if r.status == "completed"]
        assert len(started) == 14  # nothing shed under permissive tiers
        prio = {t.name: t.priority for t in OPEN_TIERS.values()}
        for hi in started:
            for lo in started:
                if (prio[hi.tier] > prio[lo.tier]
                        and hi.arrival_s <= lo.arrival_s):
                    assert hi.start_s <= lo.start_s

    def test_equal_priority_is_fifo(self):
        svc = overload_service()
        records = svc.run()
        for tier in ("interactive", "background"):
            same = [r for r in records
                    if r.tier == tier and r.status == "completed"]
            ordered = sorted(same, key=lambda r: r.arrival_s)
            starts = [r.start_s for r in ordered]
            assert starts == sorted(starts)

    def test_fifo_mode_ignores_tiers(self):
        svc = overload_service(scheduler="fifo")
        records = svc.run()
        done = sorted((r for r in records if r.status == "completed"),
                      key=lambda r: r.arrival_s)
        starts = [r.start_s for r in done]
        assert starts == sorted(starts)

    def test_priority_beats_fifo_for_interactive(self):
        fifo = overload_service(scheduler="fifo").run()
        prio = overload_service(scheduler="priority").run()

        def worst_interactive(records):
            return max(r.turnaround_s for r in records
                       if r.tier == "interactive")

        assert worst_interactive(prio) < worst_interactive(fifo)


class TestConservation:
    def test_accounting_conserved(self):
        """(b) arrival + queueing + service == finish for every record."""
        svc = overload_service()
        for r in svc.run():
            assert r.arrival_s + r.queueing_s + r.service_s == \
                pytest.approx(r.finish_s, rel=1e-12, abs=1e-12)
            assert r.queueing_s >= 0
            assert r.service_s >= 0

    def test_engine_never_overlaps(self):
        """One subgraph-at-a-time extends to one request-at-a-time."""
        svc = overload_service()
        done = sorted((r for r in svc.run() if r.status == "completed"),
                      key=lambda r: r.start_s)
        for prev, cur in zip(done, done[1:]):
            assert cur.start_s >= prev.finish_s - 1e-9


class TestDeterminism:
    def test_admission_and_schedule_deterministic(self):
        """(c) Two identical seeded runs produce identical records."""
        tight = {
            "interactive": TierPolicy("interactive", 10,
                                      slo_queueing_s=3.0),
            "background": TierPolicy("background", 0,
                                     slo_queueing_s=6.0),
        }
        first = overload_service(admission=True, tiers=tight).run()
        second = overload_service(admission=True, tiers=tight).run()
        assert [r.key() for r in first] == [r.key() for r in second]
        # the tight SLOs actually shed load, so the equality above
        # covers admission decisions, not just the happy path
        assert any(r.status == "rejected" for r in first)


class TestAdmission:
    def test_infinite_slo_admits_everything(self):
        svc = overload_service(admission=True, tiers=OPEN_TIERS)
        records = svc.run()
        assert all(r.status == "completed" for r in records)

    def test_zero_slo_rejects_queued_arrivals(self):
        strict = {"interactive": TierPolicy("interactive", 10,
                                            slo_queueing_s=0.0)}
        svc = LlmService(DEVICE, admission=True, tiers=strict)
        for i in range(3):
            svc.enqueue(MODEL, 512, 1, arrival_s=0.0, tier="interactive")
        records = svc.run()
        statuses = [r.status for r in records]
        # the first request sees an idle engine; the rest project a
        # positive wait and a zero SLO rejects any wait at all
        assert statuses == ["completed", "rejected", "rejected"]
        assert all(r.report is None for r in records
                   if r.status == "rejected")

    def test_rejection_is_free(self):
        """Rejected requests consume no engine time."""
        strict = {"interactive": TierPolicy("interactive", 10,
                                            slo_queueing_s=0.0)}
        lone = LlmService(DEVICE, admission=True, tiers=strict)
        lone.enqueue(MODEL, 512, 1, arrival_s=0.0)
        baseline = lone.run()[0]

        svc = LlmService(DEVICE, admission=True, tiers=strict)
        for _ in range(4):
            svc.enqueue(MODEL, 512, 1, arrival_s=0.0)
        records = svc.run()
        winner = [r for r in records if r.status == "completed"]
        assert len(winner) == 1
        assert winner[0].finish_s == pytest.approx(baseline.finish_s)


class TestTimeoutsAndCancellation:
    def test_queued_request_times_out(self):
        tiers = {"interactive": TierPolicy("interactive", 10,
                                           timeout_s=1.0)}
        svc = LlmService(DEVICE, admission=False, tiers=tiers)
        for i in range(4):
            svc.enqueue(MODEL, 700, 2, arrival_s=0.0, tier="interactive")
        records = svc.run()
        timed_out = [r for r in records if r.status == "timeout"]
        assert timed_out, "overload past the deadline must shed by timeout"
        for r in timed_out:
            assert r.finish_s == pytest.approx(r.arrival_s + 1.0)
            assert r.start_s == r.finish_s  # never dispatched
            assert r.report is None

    def test_per_request_timeout_overrides_tier(self):
        svc = LlmService(DEVICE, admission=False, tiers=OPEN_TIERS)
        svc.enqueue(MODEL, 700, 2, arrival_s=0.0)
        doomed = svc.enqueue(MODEL, 700, 2, arrival_s=0.0,
                             timeout_s=0.01)
        records = {r.request_id: r for r in svc.run()}
        assert records[doomed].status == "timeout"

    def test_cancel_pending_request(self):
        svc = LlmService(DEVICE, admission=False, tiers=OPEN_TIERS)
        keep = svc.enqueue(MODEL, 512, 1, arrival_s=0.0)
        drop = svc.enqueue(MODEL, 512, 1, arrival_s=0.0)
        svc.cancel(drop)
        records = {r.request_id: r for r in svc.run()}
        assert records[keep].status == "completed"
        assert records[drop].status == "cancelled"
        assert records[drop].service_s == 0.0


class TestPerEngineTimelines:
    def test_queues_do_not_cross_models(self):
        """Regression: one model's backlog must not inflate another's
        reported queueing delay (the seed shared a single clock)."""
        svc = LlmService(DEVICE, admission=False, tiers=OPEN_TIERS)
        for _ in range(6):
            svc.enqueue(MODEL, 800, 2, arrival_s=0.0)
        lone = svc.enqueue("Gemma-2B", 512, 1, arrival_s=0.0)
        records = {r.request_id: r for r in svc.run()}
        assert records[lone].queueing_s == 0.0
        # the loaded model really did queue
        assert max(r.queueing_s for r in records.values()) > 1.0

    def test_submit_uses_per_engine_clock(self):
        svc = LlmService(DEVICE)
        for _ in range(3):
            svc.submit(MODEL, 800, 2)  # back-to-back on Qwen's timeline
        gemma_ready = svc.engine_for("Gemma-2B")
        record = svc.submit("Gemma-2B", 512, 1,
                            arrival_s=svc.engine_clock_s("Gemma-2B"))
        assert gemma_ready is svc.engine_for("Gemma-2B")
        assert record.queueing_s == 0.0

    def test_engine_clock_accessor(self):
        svc = LlmService(DEVICE)
        with pytest.raises(EngineError):
            svc.engine_clock_s(MODEL)
        svc.engine_for(MODEL)
        assert svc.engine_clock_s(MODEL) == pytest.approx(
            svc.preparation_s(MODEL)
        )


class TestRequestQueue:
    class Entry:
        def __init__(self, request_id, priority, arrival_s):
            self.request_id = request_id
            self.priority = priority
            self.arrival_s = arrival_s

    def test_priority_order(self):
        q = RequestQueue("priority")
        a = self.Entry(0, priority=0, arrival_s=0.0)
        b = self.Entry(1, priority=10, arrival_s=5.0)
        c = self.Entry(2, priority=10, arrival_s=1.0)
        for e in (a, b, c):
            q.push(e)
        assert [e.request_id for e in q] == [2, 1, 0]
        assert q.pop() is c and q.pop() is b and q.pop() is a

    def test_fifo_order(self):
        q = RequestQueue("fifo")
        a = self.Entry(0, priority=0, arrival_s=2.0)
        b = self.Entry(1, priority=10, arrival_s=1.0)
        q.push(a)
        q.push(b)
        assert q.key(b) < q.key(a)
        assert q.pop() is b

    def test_unknown_mode_rejected(self):
        with pytest.raises(SchedulingError):
            RequestQueue("round-robin")

    @pytest.mark.parametrize("mode", ["priority", "fifo"])
    def test_cached_order_tracks_interleaved_push_pop(self, mode):
        """Iteration, ids, tier depths and ``ahead_of`` match a fresh
        sort after every push, pop and peek, including a pop that
        empties the queue followed by a push."""
        tiers = {10: INTERACTIVE_TIER, 0: BACKGROUND_TIER}

        class TieredEntry(self.Entry):
            @property
            def tier(self):
                return tiers[self.priority]

        q = RequestQueue(mode)
        live = []

        def check():
            want = sorted(live, key=q.key)
            assert list(q) == want
            assert q.ids() == tuple(e.request_id for e in want)
            depths = {}
            for e in want:
                depths[e.tier.name] = depths.get(e.tier.name, 0) + 1
            assert q.tier_depths() == tuple(sorted(depths.items()))
            for e in want:
                assert list(q.ahead_of(e)) == [
                    o for o in want if q.key(o) < q.key(e)]
            if want:
                assert q.peek() is want[0]
            assert len(q) == len(want) and bool(q) == bool(want)

        ops = ["push", "push", "pop", "push", "push", "push", "pop",
               "pop", "pop", "push", "pop", "push", "push", "pop"]
        for rid, op in enumerate(ops):
            if op == "push":
                e = TieredEntry(rid, priority=10 * (rid % 3 == 0),
                                arrival_s=float((7 * rid) % 5))
                live.append(e)
                q.push(e)
            else:
                got = q.pop()
                want = min(live, key=q.key)
                assert got is want
                live.remove(want)
            check()
        # a pop that empties the queue, then a push
        while live:
            live.remove(q.pop())
        check()
        e = TieredEntry(99, priority=0, arrival_s=0.0)
        live.append(e)
        q.push(e)
        check()


class TestApiValidation:
    def test_unknown_scheduler(self):
        with pytest.raises(EngineError):
            LlmService(DEVICE, scheduler="edf")

    def test_unknown_tier(self):
        svc = LlmService(DEVICE)
        with pytest.raises(EngineError):
            svc.enqueue(MODEL, 512, 1, tier="best-effort")

    def test_negative_arrival(self):
        svc = LlmService(DEVICE)
        with pytest.raises(EngineError):
            svc.enqueue(MODEL, 512, 1, arrival_s=-1.0)

    def test_bad_tier_policy(self):
        with pytest.raises(EngineError):
            TierPolicy("x", 0, slo_queueing_s=-1.0)
        with pytest.raises(EngineError):
            TierPolicy("x", 0, max_retries=-1)

    def test_default_tiers_sane(self):
        assert INTERACTIVE_TIER.priority > BACKGROUND_TIER.priority
        assert INTERACTIVE_TIER.slo_queueing_s < \
            BACKGROUND_TIER.slo_queueing_s
        assert math.isfinite(INTERACTIVE_TIER.timeout_s)


class TestMetrics:
    def test_per_tier_metrics(self):
        tight = {
            "interactive": TierPolicy("interactive", 10,
                                      slo_queueing_s=3.0),
            "background": TierPolicy("background", 0,
                                     slo_queueing_s=6.0),
        }
        svc = overload_service(admission=True, tiers=tight)
        svc.run()
        m = svc.metrics()
        assert set(m.tiers) == {"interactive", "background"}
        assert m.n_requests == 14
        assert m.n_completed + m.n_rejected + m.n_timeout == 14
        inter = m.tier("interactive")
        assert inter.p95_turnaround_s >= inter.p50_turnaround_s
        assert 0 < m.npu_utilization <= m.busy_fraction <= 1.0
        with pytest.raises(EngineError):
            m.tier("no-such-tier")

    def test_stats_covers_completed_only(self):
        strict = {"interactive": TierPolicy("interactive", 10,
                                            slo_queueing_s=0.0)}
        svc = LlmService(DEVICE, admission=True, tiers=strict)
        for _ in range(3):
            svc.enqueue(MODEL, 512, 1, arrival_s=0.0)
        svc.run()
        stats = svc.stats()
        assert stats.n_requests == 1  # two were rejected
