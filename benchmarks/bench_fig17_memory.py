"""Figure 17 — memory consumption vs INT8 baselines (512-token prompt).

llm.npu uses somewhat more memory than llama.cpp/TFLite (the MLLM/QNN
frameworks keep per-operator activation buffers), and the shadow float
weights added by §3.3 are only 0.6-1% of the total thanks to the
hot-channel cache.
"""

from conftest import show_and_archive

from repro.eval.energy_memory import fig17_memory


def test_fig17_regenerates(once):
    table = once(fig17_memory,
                 models=("Qwen1.5-1.8B", "Gemma-2B", "Phi-2-2.7B"))
    show_and_archive(table, "fig17.txt")

    for model in ("Qwen1.5-1.8B", "Gemma-2B", "Phi-2-2.7B"):
        rows = {row[1]: row for row in table.rows if row[0] == model}
        ours_total = rows["llm.npu"][2]
        lcpp_total = rows["llama.cpp-CPU"][2]
        # llm.npu uses more than the baseline but bounded (paper: <=1.32x
        # vs llama.cpp; we allow a wider envelope)
        assert ours_total > lcpp_total * 0.9
        assert ours_total < lcpp_total * 2.0
        # shadow weights are a tiny share of the total
        share = float(rows["llm.npu"][-1].rstrip("%"))
        assert share < 3.0
        assert rows["llama.cpp-CPU"][3] == 0.0
