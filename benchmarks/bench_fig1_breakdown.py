"""Figure 1 — prefill vs decode share of end-to-end latency.

The paper's motivating measurement: on mobile CPUs the prefill stage is
88.3-98.8% of end-to-end latency for UI automation / context-aware QA,
and remains the majority (54.2-91.7%) even on GPUs.
"""

from conftest import show_and_archive

from repro.eval.latency import fig1_breakdown


def test_fig1_regenerates(once):
    table = once(fig1_breakdown,
                 workload_names=("ui_automation", "email_reply",
                                 "chat_summary"),
                 n_samples=5)
    show_and_archive(table, "fig1.txt")

    shares = {(row[0], row[1]): float(row[-1].rstrip("%"))
              for row in table.rows}

    # CPU: prefill dominates heavily on the short-output workloads
    assert shares[("llama.cpp-CPU", "ui_automation")] > 88.0
    assert shares[("llama.cpp-CPU", "email_reply")] > 95.0

    # chat summary has balanced lengths -> lower share everywhere
    assert (shares[("llama.cpp-CPU", "chat_summary")]
            < shares[("llama.cpp-CPU", "ui_automation")])

    # GPU shares are lower than CPU shares but prefill still majority
    for workload in ("ui_automation", "email_reply"):
        assert (shares[("TFLite-GPU", workload)]
                < shares[("llama.cpp-CPU", workload)])
        assert shares[("TFLite-GPU", workload)] > 50.0
