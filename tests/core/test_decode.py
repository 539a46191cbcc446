"""Tests for the decode latency model."""

import itertools

import pytest

from repro.core import LlmNpuEngine
from repro.core.decode import (
    DecodeOptions,
    decode_latency_s,
    decode_token_costs,
    decode_token_s,
)
from repro.core.pipeline import clear_prepared_graphs
from repro.errors import EngineError
from repro.hw import REDMI_K70_PRO
from repro.hw.latency import (
    MatMulShape,
    attention_latency,
    matmul_latency,
    norm_latency,
    per_group_matmul_latency,
    quantize_latency,
)
from repro.model import QWEN15_18B
from repro.model.config import EXTRA_MODELS, PAPER_MODELS

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


def _one_line_token_s(config, proc, kv_len, options):
    """The per-token formula as one sum, every term recomputed per call:
    the form :func:`decode_token_costs` hoists its kv-independent terms
    out of."""
    h, f = config.hidden_size, config.ffn_hidden
    n_up = 2 if config.gated_ffn else 1
    profile = proc.matmul_profile(options.weight_dtype)
    amortized = profile.overhead_s * (1.0 - options.overhead_scale)

    def mm(k, n):
        shape = MatMulShape(1, k, n)
        if options.per_group:
            base = per_group_matmul_latency(proc, shape, options.group_size,
                                            options.weight_dtype)
        else:
            base = matmul_latency(proc, shape, options.weight_dtype)
        return max(base - amortized, 0.0)

    per_layer = (
        mm(h, config.q_dim) + 2 * mm(h, config.kv_dim)
        + attention_latency(proc, 1, kv_len, config.n_heads,
                            config.dim_per_head)
        + mm(config.q_dim, h)
        + n_up * mm(h, f) + mm(f, h)
        + 2 * norm_latency(proc, 1, h)
        + 2 * quantize_latency(proc, 1, h)
    )
    lm_head = mm(h, config.vocab_size)
    return (config.n_layers * per_layer + lm_head) / options.efficiency


PRESETS = {**PAPER_MODELS, **EXTRA_MODELS}
KV_LENS = (1, 2, 255, 256, 257, 4096)


class TestHoistedTokenCost:
    """:func:`decode_token_costs` computes the kv-independent terms once;
    each token must still cost the same bits as the one-line sum."""

    @pytest.mark.parametrize("model,backend,per_group,efficiency",
                             list(itertools.product(
                                 sorted(PRESETS), ("cpu", "gpu"),
                                 (False, True), (1.0, 0.9))))
    def test_bit_identical_to_one_line_sum(self, model, backend, per_group,
                                           efficiency):
        config = PRESETS[model]
        proc = DEV.processors[backend]
        options = DecodeOptions(backend=backend, per_group=per_group,
                                efficiency=efficiency)
        token_s = decode_token_costs(config, proc, options)
        for kv_len in KV_LENS:
            expected = _one_line_token_s(config, proc, kv_len, options)
            assert token_s(kv_len) == expected
            assert decode_token_s(config, proc, kv_len, options) == expected

    def test_engine_cache_is_bit_identical(self):
        clear_prepared_graphs()
        engine = LlmNpuEngine.build(QWEN15_18B, DEV, quant_mode="per-group")
        options = DecodeOptions(per_group=True)
        cached = engine._prepared.decode_token_costs(options)
        for kv_len in KV_LENS:
            assert cached(kv_len) == _one_line_token_s(
                QWEN15_18B, DEV.cpu, kv_len, options)

    @pytest.mark.parametrize("kv_len", [0, -1])
    def test_kv_below_one_raises(self, kv_len):
        options = DecodeOptions()
        with pytest.raises(EngineError, match="kv_len"):
            decode_token_s(QWEN15_18B, DEV.cpu, kv_len, options)
        with pytest.raises(EngineError, match="kv_len"):
            decode_token_costs(QWEN15_18B, DEV.cpu, options)(kv_len)
        clear_prepared_graphs()
        engine = LlmNpuEngine.build(QWEN15_18B, DEV)
        with pytest.raises(EngineError, match="kv_len"):
            engine._prepared.decode_token_costs(options)(kv_len)
