"""Scheduler occupancy and decision mix at the knob extremes.

The ``repro.steps/v1`` step log turned into numbers: per-step
batch-token occupancy (mean and p95 of the budget fraction filled) and
the decision-mix counts for the golden batched stream at
``prefill_priority`` 0, 0.5, and 1.  Decode-leaning settings fragment
prefill over many near-empty steps and hit the token budget constantly;
prefill-leaning settings pack the budget and finish the same work in
far fewer steps.
"""

from conftest import show_and_archive

from repro.eval.service_eval import scheduler_occupancy


def test_scheduler_occupancy_and_decision_mix(once):
    table = once(scheduler_occupancy)
    show_and_archive(table, "scheduler_occupancy.txt")

    steps = table.column("steps")
    util = table.column("mean batch util")
    skips = table.column("budget skips")
    chunks = table.column("chunk-sched")

    # prefill-leaning packing finishes the same workload in far fewer
    # steps, at strictly higher mean occupancy
    assert all(a > b for a, b in zip(steps, steps[1:]))
    assert all(a < b for a, b in zip(util, util[1:]))
    assert steps[0] > 2 * steps[-1]

    # decode-leaning scheduling keeps deferring prefill chunks at the
    # budget boundary; at p=1 the budget almost never cuts one off
    assert all(a > b for a, b in zip(skips, skips[1:]))
    assert skips[0] > 10 * skips[-1]

    # the chunk count is workload-determined, not knob-determined: the
    # knob moves *when* chunks run, within a few re-splits of each other
    assert max(chunks) - min(chunks) <= 5

    # every row ran under the token budget, so utilization is a
    # well-defined fraction
    p95 = table.column("p95 batch util")
    assert all(0.0 < u <= 1.0 for u in util)
    assert all(0.0 < u <= 1.0 for u in p95)
