"""The template builder against the per-layer construction it replaced.

``GraphBuilder.build_chunk`` computes each of a block's six subgraphs
once per chunk and stamps it per layer, memoizes the shadow specs per
profile, and ``share_chunk`` computes one attention subgraph per KV
length.  The reference below is the construction it replaced, kept
verbatim: every subgraph and shadow spec built per layer from the same
cost functions.  Every plan of a chunk-sharing graph must equal it field
for field, ``matmul_ops`` included, with the static subgraphs and the
shadow specs shared by every chunk plan.
"""

import dataclasses

import pytest

from repro.core.engine import LlmNpuEngine
from repro.graph import ChunkSharingGraph, GraphBuilder, ShadowProfile
from repro.graph.builder import BuildOptions, ChunkPlan
from repro.graph.ops import SG_ATTN, SG_FFN, SG_QKV, SG_WO
from repro.hw import get_device
from repro.hw.dma import DmaConfig
from repro.model import get_model_config

#: The host benchmark's ``prefill_sweep`` axes: the Table-5, Fig-14 and
#: Fig-19 models and devices, and Fig. 16's pruning ladder.
SWEEP_MODELS = ("Qwen1.5-1.8B", "Gemma-2B", "Phi-2-2.7B", "LlaMA-2-7B",
                "Mistral-7B", "Qwen2-1.5B", "Phi3-mini-3.8B")
SWEEP_DEVICES = ("Redmi K70 Pro", "Redmi K60 Pro")
PRUNING_LADDER = (0.85, 0.6, 0.35, 0.1, 0.975, 0.725, 0.475, 0.225)
CHUNK_LEN = 256
MAX_CHUNKS = 8


def reference_chunk(builder, chunk_index, chunk_len, shadow_profiles=None):
    """``build_chunk`` as it was: every subgraph and shadow per layer."""
    rows = chunk_len
    kv_len = (chunk_index + 1) * chunk_len
    cfg = builder.config
    subgraphs, shadows = [], {}
    for layer in range(cfg.n_layers):
        subgraphs.extend([
            builder._pre_attn(layer, rows),
            builder._qkv(layer, rows),
            builder._attention(layer, rows, kv_len),
            builder._wo(layer, rows),
            builder._pre_ffn(layer, rows),
            builder._ffn(layer, rows),
        ])
        profile = (shadow_profiles or {}).get(layer, ShadowProfile())
        shadows[(layer, SG_QKV)] = builder._shadow(
            layer, SG_QKV, rows, cfg.q_dim + 2 * cfg.kv_dim, profile)
        shadows[(layer, SG_WO)] = builder._shadow(
            layer, SG_WO, rows, cfg.hidden_size, profile)
        n_up = 2 if cfg.gated_ffn else 1
        shadows[(layer, SG_FFN)] = builder._shadow(
            layer, SG_FFN, rows, n_up * cfg.ffn_hidden + cfg.hidden_size,
            profile)
    return ChunkPlan(chunk_index, chunk_len, kv_len, subgraphs, shadows)


def reference_share(builder, base, chunk_index):
    """``share_chunk`` as it was: one attention subgraph per layer."""
    rows = base.chunk_len
    kv_len = (chunk_index + 1) * rows
    subgraphs = [builder._attention(sg.layer, rows, kv_len)
                 if sg.position == SG_ATTN else sg for sg in base.subgraphs]
    return ChunkPlan(chunk_index, rows, kv_len, subgraphs, dict(base.shadows))


def fields(spec):
    """Every dataclass field of ``spec``."""
    return tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))


def assert_same_plan(got, want, attention_only=False):
    """``got`` equals ``want``, or only on its attention subgraphs."""
    assert (got.chunk_index, got.chunk_len, got.kv_len) == \
        (want.chunk_index, want.chunk_len, want.kv_len)
    assert len(got.subgraphs) == len(want.subgraphs)
    for a, b in zip(got.subgraphs, want.subgraphs):
        if b.position == SG_ATTN or not attention_only:
            assert fields(a) == fields(b), (a.name, b.name)
            assert a.matmul_ops == b.matmul_ops, a.name
    assert list(got.shadows) == list(want.shadows)
    if not attention_only:
        for key, spec in want.shadows.items():
            assert fields(got.shadows[key]) == fields(spec), key


def check_graph(model, device, options, profiles, alone=True):
    """A fresh graph's plans equal the reference's, and share their
    static subgraphs and shadow specs; ``alone`` also checks the last
    chunk built by itself."""
    graph = ChunkSharingGraph(GraphBuilder(model, device, options),
                              CHUNK_LEN, MAX_CHUNKS, profiles)
    reference = GraphBuilder(model, device, options)
    base = reference_chunk(reference, 0, CHUNK_LEN, profiles)
    plans = [graph.plan_for_chunk(i) for i in range(MAX_CHUNKS)]
    first = plans[0]
    assert_same_plan(first, base)
    for i, plan in enumerate(plans[1:], 1):
        # the static subgraphs and shadows are the first plan's
        assert_same_plan(plan, reference_share(reference, base, i),
                         attention_only=True)
        for a, b in zip(plan.subgraphs, first.subgraphs):
            assert (a is b) == (a.position != SG_ATTN)
        for key, spec in first.shadows.items():
            assert plan.shadows[key] is spec
    if not alone:
        return
    built = GraphBuilder(model, device, options).build_chunk(
        MAX_CHUNKS - 1, CHUNK_LEN, profiles)
    assert_same_plan(built, reference_chunk(reference, MAX_CHUNKS - 1,
                                            CHUNK_LEN, profiles))


def sweep_profiles(model):
    """The engine's shadow profiles at every rate of the ladder."""
    return [LlmNpuEngine.build(model, SWEEP_DEVICES[0],
                               pruning_rate=rate).shadow_profiles
            for rate in PRUNING_LADDER]


@pytest.mark.parametrize("model_name", SWEEP_MODELS)
def test_sweep_graphs_match_the_per_layer_reference(model_name):
    model = get_model_config(model_name)
    ladder = sweep_profiles(model)
    for device_name in SWEEP_DEVICES:
        device = get_device(device_name)
        for backend in ("cpu", "gpu", "npu"):
            options = BuildOptions(float_backend=backend)
            for rung, profiles in enumerate(ladder):
                check_graph(model, device, options, profiles,
                            alone=rung == 0)


@pytest.mark.parametrize("options", [
    BuildOptions(per_group=True),
    BuildOptions(dma=DmaConfig(buffers=4, tile_bytes=64 * 1024)),
    BuildOptions(equivalent_shapes=False),
    BuildOptions(float_backend="gpu", per_group=True, group_size=64),
], ids=["per-group", "dma", "no-equivalent-shapes", "gpu-per-group-64"])
@pytest.mark.parametrize("model_name", ["Qwen1.5-1.8B", "Gemma-2B",
                                        "Phi-2-2.7B"])
def test_build_options_match_the_per_layer_reference(model_name, options):
    model = get_model_config(model_name)
    device = get_device(SWEEP_DEVICES[0])
    for profiles in [None] + sweep_profiles(model)[:2]:
        check_graph(model, device, options, profiles)


def test_missing_layers_take_the_default_profile():
    # Layers absent from the profile dict use ShadowProfile(), and equal
    # profiles built apart give equal, per-layer shadow specs.
    model = get_model_config("Qwen1.5-1.8B")
    device = get_device(SWEEP_DEVICES[1])
    profiles = {0: ShadowProfile(pruned=True), 3: ShadowProfile(),
                5: ShadowProfile(outlier_channels=3, hot_hit_rate=0.5,
                                 cold_bytes_per_miss=4096),
                6: ShadowProfile(outlier_channels=3, hot_hit_rate=0.5,
                                 cold_bytes_per_miss=4096)}
    check_graph(model, device, BuildOptions(), profiles)
    plan = GraphBuilder(model, device).build_chunk(0, CHUNK_LEN, profiles)
    assert plan.shadows[(5, SG_WO)] == dataclasses.replace(
        plan.shadows[(6, SG_WO)], layer=5)
    assert plan.shadows[(5, SG_WO)] is not plan.shadows[(6, SG_WO)]
    assert [s.layer for (layer, _), s in plan.shadows.items()
            if s.layer != layer] == []
