"""Latency-breakdown tests: components sum to turnaround, per request."""

import pytest

from repro.errors import EngineError
from repro.eval.service_eval import service_golden_records
from repro.obs import (
    SUM_TOL_S,
    breakdown_request,
    breakdown_requests,
    breakdown_table,
    tier_component_means,
    validate_breakdowns,
)


@pytest.fixture(scope="module")
def golden_service():
    return service_golden_records(seed=42)


class TestDecomposition:
    def test_components_sum_to_turnaround(self, golden_service):
        breakdowns = breakdown_requests(golden_service.requests)
        assert len(breakdowns) == len(golden_service.requests)
        for b in breakdowns:
            assert abs(b.residual_s) <= SUM_TOL_S

    def test_validate_passes_on_golden(self, golden_service):
        validate_breakdowns(breakdown_requests(golden_service.requests))

    def test_validate_rejects_bad_decomposition(self, golden_service):
        from dataclasses import replace
        b = breakdown_request(golden_service.requests[0])
        broken = replace(b, queue_s=b.queue_s + 1.0)
        with pytest.raises(EngineError, match="components sum"):
            validate_breakdowns([broken])

    def test_shed_requests_decompose_into_pure_queueing(
            self, golden_service):
        shed = [r for r in golden_service.requests
                if r.status in ("rejected", "cancelled", "timeout")]
        assert shed, "golden scenario should shed some requests"
        for r in shed:
            b = breakdown_request(r)
            assert b.prefill_s == 0.0
            assert b.decode_s == 0.0
            assert b.retry_s == 0.0
            assert abs(b.queue_s - b.turnaround_s) <= SUM_TOL_S

    def test_retry_component_counts_fault_cost(self, golden_service):
        retried = [r for r in golden_service.requests
                   if r.status == "completed" and r.retries > 0]
        assert retried, "golden scenario should include a retry"
        for r in retried:
            assert breakdown_request(r).retry_s > 0.0


class TestAggregation:
    def test_tier_means(self, golden_service):
        means = tier_component_means(
            breakdown_requests(golden_service.requests))
        assert sorted(means) == ["background", "interactive"]
        bg = means["background"]
        assert bg["n_requests"] == bg["n_completed"] + bg["n_shed"]
        # mean components of completed requests also sum to the mean
        # turnaround (linearity), up to accumulated rounding
        for tier in means.values():
            total = (tier["queue_s"] + tier["retry_s"]
                     + tier["prefill_s"] + tier["decode_s"])
            assert total == pytest.approx(tier["turnaround_s"],
                                          abs=1e-6)

    def test_breakdown_table_shape(self, golden_service):
        table = breakdown_table(golden_service.requests)
        tiers = [row[0] for row in table.rows]
        assert tiers == ["background", "interactive"]
        assert "prefill s" in table.columns
        n_total = sum(row[table.columns.index("requests")]
                      for row in table.rows)
        assert n_total == len(golden_service.requests)
