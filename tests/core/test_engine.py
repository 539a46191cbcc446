"""Tests for the llm.npu engine facade."""

import pytest

from repro.core import EngineConfig, HotChannelPolicy, LlmNpuEngine
from repro.core.hot_channels import (
    cache_saving_fraction,
    shadow_weight_bytes,
)
from repro.errors import EngineError
from repro.graph.memory_plan import plan_chunk_sharing
from repro.hw import REDMI_K60_PRO, REDMI_K70_PRO
from repro.model import QWEN15_18B, GEMMA_2B


@pytest.fixture(scope="module")
def engine():
    return LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")


class TestConstruction:
    def test_build_from_names(self, engine):
        assert engine.model is QWEN15_18B
        assert engine.device.name == "Redmi K70 Pro"

    def test_build_from_specs(self):
        eng = LlmNpuEngine.build(GEMMA_2B, REDMI_K60_PRO)
        assert eng.model is GEMMA_2B

    def test_build_kwargs_override(self):
        eng = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO, chunk_len=128)
        assert eng.config.chunk_len == 128

    def test_invalid_config(self):
        with pytest.raises(EngineError):
            EngineConfig(chunk_len=0)
        with pytest.raises(EngineError):
            EngineConfig(pruning_rate=1.5)
        with pytest.raises(EngineError):
            EngineConfig(quant_mode="int4")
        with pytest.raises(EngineError):
            EngineConfig(float_backend="dsp")

    def test_max_chunks_capped_by_context(self):
        eng = LlmNpuEngine.build(GEMMA_2B, REDMI_K70_PRO,
                                 chunk_len=4096, max_chunks=100)
        assert eng.graph.max_chunks == GEMMA_2B.max_context // 4096


class TestShadowProfiles:
    def test_pruning_keeps_end_layers(self, engine):
        profiles = engine.shadow_profiles
        assert not profiles[0].pruned
        assert not profiles[QWEN15_18B.n_layers - 1].pruned
        middle = QWEN15_18B.n_layers // 2
        assert profiles[middle].pruned

    def test_default_pruning_rate(self, engine):
        pruned = sum(1 for p in engine.shadow_profiles.values() if p.pruned)
        assert pruned == round(QWEN15_18B.n_layers * 0.85)

    def test_outlier_channels_default(self, engine):
        # 0.3% of 2048 channels ~ 6
        assert engine.shadow_profiles[0].outlier_channels == 6

    def test_zero_pruning_keeps_all(self):
        eng = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                 pruning_rate=0.0)
        assert eng.n_unpruned_layers() == QWEN15_18B.n_layers


class TestPrefill:
    def test_prefill_latency_positive(self, engine):
        report = engine.prefill(512)
        assert report.latency_s > 0
        assert report.n_chunks == 2

    def test_longer_prompts_take_longer(self, engine):
        assert (engine.prefill(1024).latency_s
                > engine.prefill(256).latency_s)

    def test_prefill_speed_in_paper_ballpark(self, engine):
        # Fig. 14: several hundred to >1000 tok/s for Qwen1.5-1.8B.
        report = engine.prefill(1024)
        assert 400 < report.tokens_per_s < 2000

    def test_short_prompt_pays_padding(self, engine):
        # A 64-token prompt runs a full 256 chunk (§3.2 padding).
        r64 = engine.prefill(64)
        r256 = engine.prefill(256)
        assert r64.latency_s == pytest.approx(r256.latency_s, rel=0.01)
        assert r64.padded_tokens == 192

    def test_invalid_prompt(self, engine):
        with pytest.raises(EngineError):
            engine.prefill(0)

    def test_non_chunking_variant_pays_rebuild(self):
        naive = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                   chunking=False, quant_mode="per-group",
                                   policy="in-order")
        full = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        assert (naive.prefill(512).latency_s
                > 5 * full.prefill(512).latency_s)

    def test_preparation_cost_only_for_chunking(self):
        full = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        naive = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                   chunking=False)
        assert full.preparation_s() > 0
        assert naive.preparation_s() == 0.0


class TestInfer:
    def test_report_fields(self, engine):
        report = engine.infer(512, output_tokens=4)
        assert report.engine == "llm.npu"
        assert report.e2e_latency_s == pytest.approx(
            report.prefill_latency_s + report.decode_latency_s
        )
        assert report.energy_j > 0
        assert report.memory_bytes > 0
        assert "prefill_energy_j" in report.extras

    def test_decode_scales_with_tokens(self, engine):
        few = engine.infer(256, output_tokens=2)
        many = engine.infer(256, output_tokens=8)
        assert many.decode_latency_s > 3 * few.decode_latency_s

    def test_summary_string(self, engine):
        text = engine.infer(256, 2).summary()
        assert "llm.npu" in text
        assert "tok/s" in text

    def test_gpu_coordination_same_prefill_lower_e2e(self):
        # Fig. 18: GPU-NPU coordination does not change prefill much but
        # reduces end-to-end latency via faster decode.
        cpu = LlmNpuEngine.build(GEMMA_2B, REDMI_K70_PRO)
        gpu = LlmNpuEngine.build(GEMMA_2B, REDMI_K70_PRO,
                                 float_backend="gpu",
                                 decode_backend="gpu")
        r_cpu = cpu.infer(1024, output_tokens=16)
        r_gpu = gpu.infer(1024, output_tokens=16)
        assert r_gpu.prefill_latency_s == pytest.approx(
            r_cpu.prefill_latency_s, rel=0.35
        )
        assert r_gpu.decode_latency_s < r_cpu.decode_latency_s
        assert r_gpu.e2e_latency_s < r_cpu.e2e_latency_s


class TestHotChannels:
    def test_cache_reduces_memory(self):
        policy = HotChannelPolicy(hot_fraction=0.03)
        saving = cache_saving_fraction(QWEN15_18B, policy)
        assert saving > 0.9

    def test_shadow_weights_small_fraction_of_total(self, engine):
        # Fig. 17: shadow float weights are ~0.6-1% of total memory.
        shadow = engine.shadow_weight_bytes()
        total = engine.memory_bytes(1024)
        assert 0.0005 < shadow / total < 0.03

    @pytest.mark.parametrize("quant_mode", ["shadow", "per-tensor"])
    def test_cached_memory_plan_matches_plan_chunk_sharing(self, quant_mode):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                    quant_mode=quant_mode)
        for tokens in (0, 1, 300, 300, 4096):
            want = plan_chunk_sharing(
                engine.graph, max(tokens, 1),
                shadow_weights_bytes=engine.shadow_weight_bytes())
            assert engine.memory_bytes(tokens) == want.total_bytes

    def test_disabled_cache_costs_more(self):
        full = shadow_weight_bytes(QWEN15_18B, 4,
                                   HotChannelPolicy(enabled=False))
        cached = shadow_weight_bytes(QWEN15_18B, 4, HotChannelPolicy())
        assert full > 10 * cached

    def test_invalid_policy(self):
        with pytest.raises(EngineError):
            HotChannelPolicy(hot_fraction=1.5)
        with pytest.raises(EngineError):
            shadow_weight_bytes(QWEN15_18B, -1, HotChannelPolicy())


class TestAblationLadder:
    """Fig. 19's shape: each technique gives a meaningful speedup."""

    @pytest.fixture(scope="class")
    def ladder(self):
        variants = {
            "naive": dict(chunking=False, quant_mode="per-group",
                          policy="in-order", equivalent_shapes=False),
            "+chunk": dict(chunking=True, quant_mode="per-group",
                           policy="in-order", equivalent_shapes=False),
            "+outlier": dict(chunking=True, quant_mode="shadow",
                             policy="in-order", equivalent_shapes=False),
            "+ooe": dict(chunking=True, quant_mode="shadow",
                         policy="ooo", equivalent_shapes=False),
        }
        return {
            name: LlmNpuEngine.build(
                QWEN15_18B, REDMI_K70_PRO, **kw
            ).prefill(512).latency_s
            for name, kw in variants.items()
        }

    def test_each_step_improves(self, ladder):
        assert ladder["naive"] > ladder["+chunk"]
        assert ladder["+chunk"] > ladder["+outlier"]
        assert ladder["+ooe"] < ladder["+outlier"] * 1.001

    def test_chunk_gain_band(self, ladder):
        # Paper: 1.46-5.09x from chunk-sharing graphs.
        gain = ladder["naive"] / ladder["+chunk"]
        assert 1.3 < gain < 8.0

    def test_outlier_gain_band(self, ladder):
        # Paper: 3.91-8.68x from shadow execution replacing per-group.
        gain = ladder["+chunk"] / ladder["+outlier"]
        assert 3.0 < gain < 12.0


class TestMemoryValidation:
    def test_7b_fits_the_24gb_device(self):
        import dataclasses
        engine = LlmNpuEngine.build("LlaMA-2-7B", "Redmi K70 Pro")
        memory = engine.validate_memory(1024)
        report = memory.report()
        assert report["dram"] < 24 * 2**30
        # the NPU region holds only the resident (FFN-first) weights
        assert report["npu"] <= 4 * 2**30

    def test_7b_rejected_on_a_4gb_phone(self):
        import dataclasses
        from repro.errors import MemoryLimitError
        from repro.hw.memory import GiB
        budget = dataclasses.replace(REDMI_K70_PRO, name="budget",
                                     dram_bytes=4 * GiB)
        engine = LlmNpuEngine.build("LlaMA-2-7B", budget)
        with pytest.raises(MemoryLimitError):
            engine.validate_memory(1024)

    def test_small_model_fits_a_small_phone(self):
        import dataclasses
        from repro.hw.memory import GiB
        budget = dataclasses.replace(REDMI_K70_PRO, name="budget",
                                     dram_bytes=6 * GiB)
        engine = LlmNpuEngine.build("Qwen1.5-1.8B", budget)
        memory = engine.validate_memory(1024)
        assert memory.report()["dram"] > 0
