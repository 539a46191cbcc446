"""Design-choice ablations beyond the paper's own Fig. 19 ladder.

Sweeps each design parameter DESIGN.md calls out: chunk length, scheduler
policy, hot-channel cache fraction, equivalent-shape optimization, and the
§5 future-hardware what-ifs.
"""

import pytest
from conftest import show_and_archive

from repro.eval.ablation import (
    ablation_chunk_length,
    ablation_equivalent_shapes,
    ablation_hot_channels,
    ablation_scheduler,
    future_hardware,
)


def test_chunk_length_tradeoff(once):
    table = once(ablation_chunk_length,
                 chunk_lens=(64, 128, 256, 512),
                 prompt_lens=(300, 1024))
    show_and_archive(table, "ablation_chunk_length.txt")

    long_speeds = dict(zip(table.column("chunk length"),
                           table.column("prompt=1024")))
    short_speeds = dict(zip(table.column("chunk length"),
                            table.column("prompt=300")))
    # 256 is the long-prompt sweet spot (the paper's choice)
    assert long_speeds[256] == max(long_speeds.values())
    # small chunks win short prompts (less padding)
    assert short_speeds[64] > short_speeds[256]
    # padding grows with the chunk length
    padding = table.column("padding @300")
    assert padding[0] < padding[2]


def test_scheduler_policies(once):
    table = once(ablation_scheduler)
    show_and_archive(table, "ablation_scheduler.txt")

    speeds = dict(zip(table.column("policy"), table.column("tok/s")))
    # the paper's heuristic wins, head-of-line in-order loses
    assert speeds["ooo"] == max(speeds.values())
    assert speeds["in-order"] == min(speeds.values())
    # and the bubble ordering matches
    bubbles = dict(zip(table.column("policy"),
                       [float(b.rstrip("%"))
                        for b in table.column("NPU bubble rate")]))
    assert bubbles["ooo"] < bubbles["in-order"]


def test_hot_channel_cache(once):
    table = once(ablation_hot_channels)
    show_and_archive(table, "ablation_hot_channels.txt")

    mib = table.column("shadow weights MiB")
    assert mib[0] < mib[-1] / 20  # 1% resident vs keep-everything
    # the paper's 3% point: big memory saving at 80% hit rate
    row3 = table.row_by_key("3%")
    assert float(row3[2].rstrip("%")) > 90
    assert float(row3[3].rstrip("%")) == 80


def test_equivalent_shapes(once):
    table = once(ablation_equivalent_shapes)
    show_and_archive(table, "ablation_equivalent_shapes.txt")
    for row in table.rows:
        gain = float(row[3].rstrip("x"))
        assert 1.05 < gain < 2.2, row[0]


def test_future_hardware(once):
    table = once(future_hardware)
    show_and_archive(table, "future_hardware.txt")

    speeds = table.column("prefill tok/s")
    bottlenecks = table.column("bottleneck")
    # faster NPUs help, with saturating returns
    assert speeds[1] > speeds[0]
    assert speeds[3] < 1.2 * speeds[1]
    # the bottleneck flips from NPU to CPU as the NPU accelerates
    assert bottlenecks[0] == "NPU"
    assert bottlenecks[-1] == "CPU"


def test_mixed_precision_npu(once):
    from repro.eval.ablation import mixed_precision_npu
    table = once(mixed_precision_npu)
    show_and_archive(table, "mixed_precision_npu.txt")

    speeds = table.column("all-NPU tok/s")
    verdicts = table.column("all-NPU wins?")
    # today's FP16 path makes all-NPU execution catastrophic...
    assert speeds[0] < 100
    assert verdicts[0] == "no"
    # ...a mixed-precision NPU flips the verdict
    assert verdicts[-1] == "yes"
    assert speeds[-1] > 10 * speeds[0]


def test_tri_processor_negative_result(once):
    from repro.eval.ablation import tri_processor
    table = once(tri_processor)
    show_and_archive(table, "tri_processor.txt")

    for row in table.rows:
        _, cpu_npu, gpu_npu, tri = row
        # the third processor never helps beyond GPU-NPU (within 3%):
        # shadow MatMuls are too small to contend for the float processor
        assert tri <= gpu_npu * 1.03
        assert tri >= gpu_npu * 0.9


def test_short_prompt_crossover(once):
    from repro.eval.ablation import short_prompt_crossover
    table = once(short_prompt_crossover)
    show_and_archive(table, "short_prompt_crossover.txt")

    prompts = table.column("prompt")
    ours = table.column("llm.npu ms")
    gpu = table.column("TFLite-GPU ms")
    hybrid = table.column("hybrid ms")
    picks = table.column("hybrid picks")
    # the GPU engine wins the shortest prompts (padding), llm.npu the rest
    assert gpu[0] < ours[0]
    assert ours[-1] < gpu[-1]
    # the hybrid dispatcher matches the winner everywhere
    for o, g, h in zip(ours, gpu, hybrid):
        assert h == pytest.approx(min(o, g), rel=1e-6)
    assert picks[0] == "gpu"
    assert picks[-1] == "llm.npu"
