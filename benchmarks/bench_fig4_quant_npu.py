"""Figure 4 — quantization algorithm cost on the NPU.

Per-group layouts (K-Quant, AWQ) force the NPU to decompose the MatMul
into group-sized sub-MatMuls plus float reductions; the paper measures
8.1-10.7x overhead vs per-tensor quantization.
"""

from conftest import show_and_archive

from repro.eval.latency import fig4_quant_npu


def test_fig4_regenerates(once):
    table = once(fig4_quant_npu)
    show_and_archive(table, "fig4.txt")

    per_tensor = table.value("per-tensor (SmoothQuant/llm.npu)",
                             "latency ms")
    kquant = table.value("K-Quant (g=32)", "latency ms")
    awq = table.value("AWQ-style (g=128)", "latency ms")

    # the paper's band for fine-grained grouping
    assert 6.0 * per_tensor < kquant < 20.0 * per_tensor
    # coarser groups pay less but still a multiple
    assert per_tensor < awq < kquant
