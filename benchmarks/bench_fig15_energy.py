"""Figure 15 — prefill energy consumption on the Redmi K60 Pro.

llm.npu's energy win comes from both finishing sooner and keeping the work
on the low-power NPU (paper at 1024 tokens: 35.6-59.5x vs llama.cpp-CPU,
35.2-59.3x vs MLC-GPU, 1.85-4.32x vs TFLite-GPU).
"""

from conftest import show_and_archive

from repro.eval.energy_memory import fig15_energy


def test_fig15_regenerates(once):
    table = once(fig15_energy,
                 models=("Qwen1.5-1.8B", "Gemma-2B", "LlaMA-2-7B"),
                 prompt_lens=(64, 1024))
    show_and_archive(table, "fig15.txt")

    savings = {}
    for row in table.rows:
        savings[(row[0], row[1])] = float(row[-1].rstrip("x"))

    for model in ("Qwen1.5-1.8B", "Gemma-2B", "LlaMA-2-7B"):
        # large factors vs the CPU engine and MLC, small vs TFLite
        assert savings[(model, "llama.cpp-CPU")] > 8.0
        assert savings[(model, "MLC-GPU")] > 20.0
        assert 1.3 < savings[(model, "TFLite-GPU")] < 5.0
        # ordering: worst-efficiency engines burn the most energy
        assert (savings[(model, "MLC-GPU")]
                > savings[(model, "TFLite-GPU")])


def test_fig15_energy_grows_with_prompt(once):
    table = once(fig15_energy, models=("Qwen1.5-1.8B",),
                 prompt_lens=(64, 256, 1024))
    show_and_archive(table, "fig15_scaling.txt")
    for row in table.rows:
        assert row[2] <= row[3] <= row[4]
