"""Calibration dashboard — every paper anchor the simulator is fitted to.

One consolidated check: Table 3 fits, Figure 2 graph costs, the sharing
count, Eq. 5 scheduling gains, sync overhead share, real-world anchors,
and the equivalent-shape gain.
"""

from conftest import show_and_archive

from repro.eval.validation import calibration_dashboard


def test_all_anchors_pass(once):
    table = once(calibration_dashboard)
    show_and_archive(table, "calibration_dashboard.txt")
    statuses = table.column("status")
    assert "FAIL" not in statuses
    # the load-bearing anchors must be strict PASSes, not NEAR
    strict = {
        "Qwen shared subgraphs",
        "per-group NPU penalty (g=32)",
        "out-of-order latency reduction",
        "llama.cpp Qwen prefill",
    }
    for row in table.rows:
        if row[0] in strict:
            assert row[-1] == "PASS", row[0]
