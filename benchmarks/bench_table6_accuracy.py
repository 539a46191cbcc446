"""Table 6 — quantization accuracy across the five benchmark suites.

Real quantization numerics on the synthetic substrate, scored as teacher
agreement against the FP32 reference.  The paper's ordering: FP16 ~
LLM.int8() >= llm.npu (at its default 85% pruning) > K-Quant (per-group)
> SmoothQuant, with llm.npu's average degradation ~1%.
"""

from conftest import show_and_archive

from repro.eval.accuracy import table6_accuracy


def test_table6_regenerates(once):
    table = once(table6_accuracy, n_items_scale=0.5)
    show_and_archive(table, "table6.txt")

    means = {row[0]: row[-1] for row in table.rows}

    # FP16 is the (near-perfect) reference
    assert means["fp16"] > 0.97

    # LLM.int8() is the most faithful int8 scheme
    assert means["llm.int8"] > 0.95

    # llm.npu at default pruning: small degradation, comparable to the
    # per-group schemes and clearly better than SmoothQuant
    assert means["llm.npu"] > 0.93
    assert means["llm.npu"] >= means["smoothquant"]
    assert means["llm.npu"] >= means["per-group"] - 0.03

    # ordering top to bottom
    assert means["fp16"] >= means["llm.int8"] - 0.01
    assert means["llm.int8"] >= means["smoothquant"]


def test_naive_per_tensor_is_far_worse(once):
    table = once(table6_accuracy,
                 schemes=("fp16", "per-tensor", "llm.npu"),
                 benchmarks=("lambada", "hellaswag"),
                 n_items_scale=0.5)
    show_and_archive(table, "table6_per_tensor.txt")
    means = {row[0]: row[-1] for row in table.rows}
    # naive per-tensor (absmax scale, no outlier handling) trails llm.npu —
    # the accuracy motivation for shadow execution
    assert means["per-tensor"] < means["llm.npu"]
    assert means["per-tensor"] < means["fp16"] - 0.05
