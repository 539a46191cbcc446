"""Figure 19 — technique-by-technique ablation (512-token prompt).

The ladder: llama.cpp-CPU -> naive NPU offload (slower than the CPU!) ->
+chunk-sharing graphs -> +shadow outlier execution -> +out-of-order
scheduling (= llm.npu).  Paper bands: chunk 1.46-5.09x, outlier 3.91-8.68x,
OOE 18-44% latency reduction.
"""

from conftest import show_and_archive

from repro.core import LlmNpuEngine
from repro.eval.latency import fig19_ablation


def test_fig19_regenerates(once):
    table = once(fig19_ablation,
                 models=("Qwen1.5-1.8B", "Gemma-2B", "LlaMA-2-7B"),
                 prompt_len=512)
    show_and_archive(table, "fig19.txt")

    for row in table.rows:
        model, cpu, naive, chunk, outlier, ooe = row
        # naive NPU offload is slower than the CPU baseline (§2.3)
        assert naive < cpu, model
        # each technique helps
        assert chunk > naive, model
        assert outlier > chunk, model
        assert ooe >= outlier * 0.999, model
        # paper bands (wide tolerance)
        assert 1.2 < chunk / naive < 9.0, model
        assert 2.5 < outlier / chunk < 14.0, model


def test_ooe_reduction_band():
    """OOE's latency reduction vs in-order on a multi-chunk prompt."""
    inorder = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro",
                                 policy="in-order").prefill(1024).latency_s
    ooo = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro",
                             policy="ooo").prefill(1024).latency_s
    reduction = 1.0 - ooo / inorder
    print(f"\nOOE latency reduction at 1024 tokens: {reduction:.1%} "
          "(paper: 18-44%)")
    assert 0.15 <= reduction <= 0.50
