"""Figure 16 — accuracy vs generation speed across outlier pruning rates.

Higher pruning rates remove shadow execution (and its CPU work + sync)
from more layers: prefill speeds up monotonically while accuracy holds
until the important layers start being pruned, then collapses.
"""

from conftest import show_and_archive

from repro.eval.accuracy import fig16_pruning_tradeoff


def test_fig16_regenerates(once):
    table = once(fig16_pruning_tradeoff,
                 rates=(0.0, 0.25, 0.5, 0.75, 0.85, 0.95, 1.0),
                 benchmarks=("lambada", "hellaswag"),
                 n_items_scale=0.5)
    show_and_archive(table, "fig16.txt")

    speeds = table.column("prefill tok/s")
    lambada = table.column("acc:lambada")
    hellaswag = table.column("acc:hellaswag")

    # speed rises monotonically with the pruning rate
    assert all(b >= a - 1e-9 for a, b in zip(speeds, speeds[1:]))
    assert speeds[-1] > 1.1 * speeds[0]

    # accuracy at the default rate (index 4: 85%) is close to unpruned
    assert lambada[4] >= lambada[0] - 0.15
    assert hellaswag[4] >= hellaswag[0] - 0.12

    # full pruning collapses accuracy (paper: Qwen falls to 8.1% LAMBADA)
    assert lambada[-1] < lambada[0] - 0.3
