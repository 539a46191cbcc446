"""LLM-as-a-System-Service load analysis (extension experiment).

The deployment-level payoff of fast prefill: at mobile-agent request
rates, an llm.npu-backed OS service stays interactive where a CPU-engine
service drowns in queueing.
"""

from conftest import show_and_archive

from repro.eval.service_eval import (
    service_breakdown,
    service_engine_comparison,
    service_fault_recovery,
    service_load,
    service_tier_comparison,
)


def test_service_capacity_knee(once):
    table = once(service_load,
                 inter_arrival_s=(8.0, 4.0, 2.0, 1.0, 0.5),
                 n_requests=12)
    show_and_archive(table, "service_load.txt")

    queueing = table.column("mean queueing s")
    turnaround = table.column("mean turnaround s")
    # no queueing at sparse arrivals
    assert queueing[0] == 0
    # queueing appears and grows past the capacity knee
    assert queueing[-1] > queueing[-2] > 0
    assert turnaround[-1] > 2 * turnaround[0]


def test_service_engine_comparison(once):
    table = once(service_engine_comparison, inter_arrival_s=2.0,
                 n_requests=10)
    show_and_archive(table, "service_comparison.txt")

    ours = table.row_by_key("llm.npu service")
    baseline = table.row_by_key("llama.cpp service")
    # at a 2s arrival gap the llm.npu service doesn't queue at all...
    assert ours[3] == 0
    # ...while the CPU-engine service's queueing dominates its turnaround
    assert baseline[3] > 10 * ours[1]
    assert baseline[1] > 20 * ours[1]


def test_service_tier_scheduling(once):
    """Two-tier overload: priority+admission vs the seed's FIFO queue."""
    table = once(service_tier_comparison)
    show_and_archive(table, "service_tiers.txt")

    fifo = table.row_by_key("fifo (seed)")
    sched = table.row_by_key("priority+admission")
    # the interactive tier's p95 improves by a large factor...
    assert sched[2] < fifo[2] / 3
    # ...paid for by shed background load, which FIFO never rejects
    assert fifo[5] == 0
    assert sched[5] > 0
    # both schedules drive the same engine: utilization stays comparable
    assert sched[7] > 0.3


def test_service_latency_breakdown(once):
    """Turnaround decomposes exactly into queue/retry/prefill/decode."""
    table = once(service_breakdown)
    show_and_archive(table, "service_breakdown.txt")

    # breakdown_table re-validates per-request sums (1e-9 s) before
    # rendering; here assert the aggregate story: the background tier's
    # turnaround is queueing-dominated, the interactive tier's is not.
    from repro.eval.service_eval import service_golden_records
    from repro.obs import breakdown_requests, validate_breakdowns
    breakdowns = breakdown_requests(service_golden_records().requests)
    validate_breakdowns(breakdowns)

    bg = table.row_by_key("background")
    interactive = table.row_by_key("interactive")
    cols = table.columns
    queue, turnaround = cols.index("queue s"), cols.index("turnaround s")
    prefill = cols.index("prefill s")
    assert bg[queue] > 0.5 * bg[turnaround]
    assert interactive[queue] < interactive[turnaround]
    assert interactive[prefill] > 0


def test_service_fault_recovery(once):
    """Transient faults are absorbed by bounded retries, not failures."""
    table = once(service_fault_recovery)
    show_and_archive(table, "service_faults.txt")

    completed = table.column("completed")
    retries = table.column("retries")
    turnaround = table.column("mean turnaround s")
    # every request completes at every fault rate (cap never exhausted)
    assert all(c == completed[0] for c in completed)
    # retries and turnaround grow with the fault rate
    assert retries[0] == 0 and retries[-1] > retries[0]
    assert turnaround[-1] > turnaround[0]
