"""Figure 8 — per-token latency of QKV linears and FFN vs chunk length.

The basis for llm.npu's chunk length of 256: per-token NPU cost falls
steeply up to ~256 rows and flattens after, while padding waste keeps
growing with the chunk size.
"""

from conftest import show_and_archive

from repro.eval.latency import fig8_chunk_length


def test_fig8_regenerates(once):
    table = once(fig8_chunk_length,
                 chunk_lens=(32, 64, 128, 256, 512, 1024))
    show_and_archive(table, "fig8.txt")

    qkv = table.column("QKV linears")
    ffn = table.column("FFN")

    # strictly falling through 256 for both op classes
    for series in (qkv, ffn):
        assert series[0] > series[1] > series[2] > series[3]

    # diminishing returns past 256: the 256->1024 gain is much smaller
    # than the 32->128 gain
    early_gain = ffn[0] / ffn[2]
    late_gain = ffn[3] / ffn[5]
    assert late_gain < 0.5 * early_gain


def test_fig8_gemma(once):
    table = once(fig8_chunk_length, model="Gemma-2B",
                 chunk_lens=(64, 256, 1024))
    show_and_archive(table, "fig8_gemma.txt")
    ffn = table.column("FFN")
    assert ffn[0] > ffn[1] > ffn[2]
