"""Tests for the decode latency model."""

import pytest

from repro.core import LlmNpuEngine
from repro.core.decode import DecodeOptions, decode_latency_s, decode_token_s
from repro.core.pipeline import clear_prepared_graphs
from repro.errors import EngineError
from repro.hw import REDMI_K70_PRO
from repro.model import QWEN15_18B

DEV = REDMI_K70_PRO


class TestDecodeToken:
    def test_positive(self):
        t = decode_token_s(QWEN15_18B, DEV.cpu, 512, DecodeOptions())
        assert t > 0

    def test_paper_ballpark(self):
        # Table 5: ~80 ms/token for Qwen1.5-1.8B on llama.cpp-CPU; the
        # W8A8 model here should land within ~2.5x of that.
        t = decode_token_s(QWEN15_18B, DEV.cpu, 1500, DecodeOptions())
        assert 0.04 < t < 0.25

    def test_grows_with_kv(self):
        short = decode_token_s(QWEN15_18B, DEV.cpu, 128, DecodeOptions())
        long = decode_token_s(QWEN15_18B, DEV.cpu, 8192, DecodeOptions())
        assert long > short

    def test_gpu_faster_than_cpu(self):
        # Fig. 18(b): the GPU decode backend cuts end-to-end latency.
        from repro.hw.processor import DType
        cpu = decode_token_s(QWEN15_18B, DEV.cpu, 512, DecodeOptions())
        gpu = decode_token_s(
            QWEN15_18B, DEV.gpu, 512,
            DecodeOptions(backend="gpu", weight_dtype=DType.FP16),
        )
        assert gpu < cpu

    def test_per_group_slower(self):
        pt = decode_token_s(QWEN15_18B, DEV.cpu, 512, DecodeOptions())
        pg = decode_token_s(QWEN15_18B, DEV.cpu, 512,
                            DecodeOptions(per_group=True))
        assert pg >= pt

    def test_efficiency_scales(self):
        fast = decode_token_s(QWEN15_18B, DEV.cpu, 512, DecodeOptions())
        slow = decode_token_s(QWEN15_18B, DEV.cpu, 512,
                              DecodeOptions(efficiency=0.5))
        assert slow == pytest.approx(2 * fast)

    def test_invalid_kv(self):
        with pytest.raises(EngineError):
            decode_token_s(QWEN15_18B, DEV.cpu, 0, DecodeOptions())

    def test_invalid_options(self):
        with pytest.raises(EngineError):
            DecodeOptions(efficiency=0)
        with pytest.raises(EngineError):
            DecodeOptions(overhead_scale=2.0)


class TestDecodeSequence:
    def test_total_is_sum_of_steps(self):
        opts = DecodeOptions()
        total = decode_latency_s(QWEN15_18B, DEV.cpu, 256, 3, opts)
        steps = sum(
            decode_token_s(QWEN15_18B, DEV.cpu, 256 + i + 1, opts)
            for i in range(3)
        )
        assert total == pytest.approx(steps)

    def test_zero_tokens_is_free(self):
        assert decode_latency_s(QWEN15_18B, DEV.cpu, 256, 0,
                                DecodeOptions()) == 0.0

    def test_negative_raises(self):
        with pytest.raises(EngineError):
            decode_latency_s(QWEN15_18B, DEV.cpu, 256, -1, DecodeOptions())


class TestEngineDecodeCache:
    """``engine.decode`` reads per-token costs cached on the prepared
    graph; the sum must stay bit-identical to the uncached one."""

    @pytest.mark.parametrize("quant_mode", ["shadow", "per-group",
                                            "per-tensor"])
    def test_cached_decode_is_bit_identical(self, quant_mode):
        clear_prepared_graphs()
        # Both decode backends share one prepared graph and its cache.
        engines = [LlmNpuEngine.build(QWEN15_18B, DEV, decode_backend=b,
                                      quant_mode=quant_mode)
                   for b in ("cpu", "gpu")]
        assert engines[0].graph is engines[1].graph
        # Overlapping KV ranges, twice: later calls hit cached tokens.
        for _ in range(2):
            for engine in engines:
                backend = engine.config.decode_backend
                options = DecodeOptions(backend=backend,
                                        per_group=quant_mode == "per-group",
                                        group_size=engine.config.group_size)
                for prompt in (300, 320):
                    for out in (0, 1, 37):
                        assert engine.decode(prompt, out) == decode_latency_s(
                            QWEN15_18B, DEV.processors[backend], prompt,
                            out, options)
