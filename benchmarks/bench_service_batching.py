"""Continuous batching with chunked prefill (extension experiment).

The iteration-level step loop against per-request dispatch on a
decode-heavy two-tier overload stream: goodput (SLO-met requests per
second) improves because interactive arrivals preempt background
decode tails at chunk boundaries instead of queueing behind them, and
the ``prefill_priority`` knob trades TTFT against ITL.
"""

from conftest import show_and_archive

from repro.eval.service_eval import service_batching


def test_service_batching_goodput_and_knob(once):
    table = once(service_batching)
    show_and_archive(table, "service_batching.txt")

    goodput = table.column("goodput req/s")
    ttft = table.column("mean ttft s")
    itl = table.column("mean itl s")
    baseline = table.row_by_key("per-request (baseline)")
    mid = table.row_by_key("step loop p=0.5")
    cols = table.columns
    g = cols.index("goodput req/s")

    # the step loop beats per-request dispatch on goodput at the
    # default knob setting (and a fortiori at the sweep's best point)
    assert mid[g] > baseline[g]
    assert max(goodput[1:]) > baseline[g]

    # sweeping prefill_priority 0 -> 1 moves TTFT and ITL in opposite
    # directions: TTFT falls monotonically, ITL rises monotonically
    swept_ttft = ttft[1:]
    swept_itl = itl[1:]
    assert all(a > b for a, b in zip(swept_ttft, swept_ttft[1:]))
    assert all(a < b for a, b in zip(swept_itl, swept_itl[1:]))
    assert swept_ttft[-1] < swept_ttft[0] / 2
    assert swept_itl[-1] > 2 * swept_itl[0]

    # interactive arrivals stop missing their TTFT bound once chunked
    # preemption is in play at prefill-leaning settings
    int_max = cols.index("int ttft max s")
    assert table.row_by_key("step loop p=0.75")[int_max] < 4.0
