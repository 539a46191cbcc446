"""Tests for the ablation and what-if drivers."""

import pytest

from repro.eval.ablation import (
    ablation_chunk_length,
    ablation_equivalent_shapes,
    ablation_hot_channels,
    ablation_scheduler,
    future_hardware,
    mixed_precision_npu,
)


class TestChunkLength:
    def test_256_best_for_long_prompts(self):
        table = ablation_chunk_length(chunk_lens=(128, 256, 512),
                                      prompt_lens=(1024,))
        speeds = dict(zip(table.column("chunk length"),
                          table.column("prompt=1024")))
        assert speeds[256] == max(speeds.values())

    def test_padding_column(self):
        table = ablation_chunk_length(chunk_lens=(64, 256),
                                      prompt_lens=(300, 512))
        assert table.column("padding @300") == [20, 212]


class TestScheduler:
    def test_ooo_wins(self):
        table = ablation_scheduler(policies=("in-order", "ooo"))
        speeds = dict(zip(table.column("policy"), table.column("tok/s")))
        assert speeds["ooo"] > speeds["in-order"]

    def test_reduction_column_format(self):
        table = ablation_scheduler(policies=("in-order", "ooo"))
        assert table.rows[0][-1] == "0%"
        assert table.rows[1][-1].startswith("-")


class TestHotChannels:
    def test_memory_monotone_in_fraction(self):
        table = ablation_hot_channels(fractions=(0.01, 0.1, 1.0))
        mib = table.column("shadow weights MiB")
        assert mib[0] < mib[1] < mib[2]


class TestEquivalentShapes:
    def test_gains_positive(self):
        table = ablation_equivalent_shapes(models=("Qwen1.5-1.8B",))
        assert table.rows[0][2] > table.rows[0][1]


class TestFutureHardware:
    def test_bottleneck_flips(self):
        table = future_hardware(npu_speedups=(1.0, 8.0))
        assert table.column("bottleneck") == ["NPU", "CPU"]

    def test_mixed_precision_crossover(self):
        table = mixed_precision_npu(fp16_tflops=(0.00317, 4.0))
        assert table.column("all-NPU wins?") == ["no", "yes"]

    def test_all_npu_on_todays_hw_is_catastrophic(self):
        table = mixed_precision_npu(fp16_tflops=(0.00317,),
                                    prompt_len=256)
        assert table.rows[0][1] < 0.2 * table.rows[0][2]


class TestTriProcessor:
    def test_third_processor_is_a_wash(self):
        from repro.eval.ablation import tri_processor
        table = tri_processor(pruning_rates=(0.85,), prompt_len=512)
        _, cpu_npu, gpu_npu, tri = table.rows[0]
        assert abs(tri - gpu_npu) / gpu_npu < 0.05

    def test_shadow_backend_validation(self):
        from repro.core import EngineConfig
        from repro.errors import EngineError
        import pytest as _pytest
        with _pytest.raises(EngineError):
            EngineConfig(shadow_backend="dsp")
