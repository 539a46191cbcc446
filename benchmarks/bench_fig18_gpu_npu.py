"""Figure 18 — CPU-NPU vs GPU-NPU coordination.

The float-side processor barely moves prefill speed (its work hides under
the NPU), but a GPU decode backend reduces end-to-end latency.
"""

from conftest import show_and_archive

from repro.eval.latency import fig18_coordination


def test_fig18_regenerates(once):
    table = once(fig18_coordination,
                 prompt_lens=(256, 512, 1024), output_tokens=16)
    show_and_archive(table, "fig18.txt")

    cpu = {int(row[1]): row for row in table.rows if row[0] == "CPU-NPU"}
    gpu = {int(row[1]): row for row in table.rows if row[0] == "GPU-NPU"}

    for prompt in (256, 512, 1024):
        # (a) prefill speed is similar between coordination modes
        ratio = gpu[prompt][2] / cpu[prompt][2]
        assert 0.7 < ratio < 1.6, (prompt, ratio)
        # (b) GPU decode cuts decode and end-to-end latency
        assert gpu[prompt][3] < cpu[prompt][3]
        assert gpu[prompt][4] < cpu[prompt][4]
