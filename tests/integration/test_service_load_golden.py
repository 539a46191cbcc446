"""Golden regression test for the service scheduler.

One seeded two-tier overload workload (with a seeded transient-fault
injector) is played through the priority+admission scheduler; the
assertions pin the exact shed counts, the latency buckets, and the
per-tier throughput.  Any future change to the admission formula, the
queue order, the retry policy, or the engine cost models that moves
these numbers trips this test — which is the point: such changes must be
deliberate, and must update the goldens alongside the code.
"""

import pytest

from repro.eval.service_eval import (
    service_golden_records,
    service_golden_snapshot,
)

GOLDEN_SEED = 42


@pytest.fixture(scope="module")
def golden_service():
    return service_golden_records(seed=GOLDEN_SEED)


class TestGoldenCounts:
    def test_shed_counts(self, golden_service):
        m = golden_service.metrics()
        assert m.n_requests == 22
        assert m.n_completed == 19
        assert m.n_rejected == 3
        assert m.n_timeout == 0
        assert m.n_failed == 0
        assert m.n_retries == 1  # one injected transient fault recovered

    def test_per_tier_counts(self, golden_service):
        m = golden_service.metrics()
        interactive = m.tier("interactive")
        background = m.tier("background")
        assert (interactive.n_requests, interactive.n_completed,
                interactive.n_rejected) == (12, 12, 0)
        assert (background.n_requests, background.n_completed,
                background.n_rejected) == (10, 7, 3)


class TestGoldenLatency:
    def test_interactive_buckets(self, golden_service):
        t = golden_service.metrics().tier("interactive")
        assert t.p50_turnaround_s == pytest.approx(2.3224096229, rel=1e-6)
        assert t.p95_turnaround_s == pytest.approx(2.7933250528, rel=1e-6)
        assert t.mean_queueing_s == pytest.approx(1.1408938783, rel=1e-6)

    def test_background_buckets(self, golden_service):
        t = golden_service.metrics().tier("background")
        assert t.p50_turnaround_s == pytest.approx(23.0360672971, rel=1e-6)
        assert t.p95_turnaround_s == pytest.approx(27.9678230197, rel=1e-6)

    def test_per_tier_throughput(self, golden_service):
        m = golden_service.metrics()
        assert m.tier("interactive").throughput_rps == pytest.approx(
            0.3699352986, rel=1e-6)
        assert m.tier("background").throughput_rps == pytest.approx(
            0.2157955909, rel=1e-6)
        assert m.span_s == pytest.approx(32.4381048391, rel=1e-6)
        assert m.npu_utilization == pytest.approx(0.6300434620, rel=1e-6)


class TestGoldenDeterminism:
    def test_two_runs_identical(self):
        """The regression tripwire: byte-identical consecutive runs."""
        assert service_golden_snapshot(GOLDEN_SEED) == \
            service_golden_snapshot(GOLDEN_SEED)

    def test_records_are_pure_function_of_seed(self, golden_service):
        again = service_golden_records(seed=GOLDEN_SEED)
        assert [r.key() for r in golden_service.requests] == \
            [r.key() for r in again.requests]

    def test_different_seed_differs(self, golden_service):
        other = service_golden_records(seed=GOLDEN_SEED + 1)
        assert [r.key() for r in golden_service.requests] != \
            [r.key() for r in other.requests]
