"""Prefill memo and shared chunk-sharing graphs (core/pipeline.py).

The oracle is a direct, un-memoized ``run_prefill`` over chunk plans
built on a fresh :class:`GraphBuilder` with ``build_chunk`` — no shared
graph, no ``share_chunk``, no memo.  Every memoized ``engine.prefill``
(first sighting, admitting second sighting, and hits) must equal it
field for field, trace events included.
"""

import dataclasses
import math

import pytest

from repro.core import EngineConfig, LlmNpuEngine
from repro.core import pipeline
from repro.core.pipeline import (
    MAX_PREPARED_GRAPHS,
    clear_prepared_graphs,
    prefill_memo_stats,
    reset_prefill_memo_stats,
    run_prefill,
)
from repro.core.scheduler import POLICIES, get_policy
from repro.core.service import _prefill_chunk_costs
from repro.graph.builder import BuildOptions, GraphBuilder
from repro.hw import REDMI_K60_PRO, REDMI_K70_PRO
from repro.hw.dma import DmaConfig
from repro.hw.processor import DType
from repro.hw.trace import Trace
from repro.model import QWEN15_18B
from repro.obs import engine_with_dma

CHUNK = 256


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_prepared_graphs()
    reset_prefill_memo_stats()
    yield
    clear_prepared_graphs()
    reset_prefill_memo_stats()


def oracle(engine, prompt_tokens, cached_tokens=0):
    """The prefill ``engine`` must report, computed from scratch."""
    cfg = engine.config
    include_shadow = cfg.quant_mode == "shadow"
    profiles = engine.shadow_profiles if include_shadow else None
    builder = GraphBuilder(engine.model, engine.device, BuildOptions(
        float_backend=cfg.float_backend,
        per_group=cfg.quant_mode == "per-group",
        group_size=cfg.group_size,
        equivalent_shapes=cfg.equivalent_shapes,
        dma=engine.build_options.dma,
    ))
    extra = 0.0
    if cfg.chunking:
        first = cached_tokens // cfg.chunk_len
        remainder = cached_tokens % cfg.chunk_len
        n = math.ceil((prompt_tokens + remainder) / cfg.chunk_len)
        plans = [builder.build_chunk(i, cfg.chunk_len, profiles)
                 for i in range(first, first + n)]
    else:
        plans = [builder.build_chunk(0, max(32, prompt_tokens), profiles)]
        extra = engine.graph.naive_per_prompt_preparation_s()
    return run_prefill(plans, engine.device, prompt_tokens,
                       float_backend=cfg.float_backend, policy=cfg.policy,
                       include_shadow=include_shadow, extra_latency_s=extra,
                       shadow_backend=cfg.shadow_backend)


def parsed_chunk_costs(prefill, n_chunks):
    """Per-chunk costs as the service derived them before the facts were
    shared: parse every task id of the trace for its chunk's finish."""
    finish = {}
    for event in prefill.trace.events:
        chunk = int(event.task_id.split(".", 1)[0][1:])
        finish[chunk] = max(finish.get(chunk, 0.0), event.end_s)
    assert len(finish) == n_chunks
    costs, prev = [], 0.0
    for chunk in sorted(finish, key=lambda c: (finish[c], c)):
        costs.append(finish[chunk] - prev)
        prev = finish[chunk]
    costs[0] += prefill.latency_s - prev
    return costs


def assert_same_report(got, want):
    for f in dataclasses.fields(want):
        if f.name != "trace":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.trace.events == want.trace.events


def check_memoized(engine, prompt_tokens, cached_tokens=0, sightings=3):
    want = oracle(engine, prompt_tokens, cached_tokens)
    for _ in range(sightings):
        assert_same_report(engine.prefill(prompt_tokens, cached_tokens), want)


class TestOracleEquality:
    @pytest.mark.parametrize("policy", ["ooo", "in-order", "chunk-order",
                                        "fifo"])
    @pytest.mark.parametrize("backend", ["cpu", "gpu"])
    def test_policies_and_float_backends(self, policy, backend):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                    policy=policy, float_backend=backend)
        check_memoized(engine, 600)

    def test_shadow_backend(self):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                    float_backend="gpu", shadow_backend="cpu")
        check_memoized(engine, 300)

    @pytest.mark.parametrize("quant_mode", ["shadow", "per-group",
                                            "per-tensor"])
    def test_quant_modes(self, quant_mode):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K60_PRO,
                                    quant_mode=quant_mode)
        check_memoized(engine, 256)

    def test_cached_token_ladder(self):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        # Aligned and unaligned caches, short and multi-chunk prompts;
        # several prompt lengths map onto one plan span.
        for cached in (0, 100, CHUNK, CHUNK + 1, 3 * CHUNK - 1):
            for prompt in (1, 200, CHUNK, CHUNK + 57):
                check_memoized(engine, prompt, cached, sightings=2)

    def test_prompt_lengths_sharing_a_span_differ_only_in_padding(self):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        for prompt in (257, 300, 300, 511, 512, 400):
            check_memoized(engine, prompt, sightings=1)
        stats = prefill_memo_stats()
        assert stats["misses"] == 2 and stats["hits"] == 4

    def test_non_chunking_engine_bypasses_the_memo(self):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                    chunking=False, quant_mode="per-group",
                                    policy="in-order")
        check_memoized(engine, 300)
        assert prefill_memo_stats() == {"hits": 0, "misses": 0,
                                        "entries": 0}

    def test_scheduling_knobs_key_the_memo_within_one_graph(self):
        engines = [LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO, **kw)
                   for kw in (dict(), dict(policy="in-order"),
                              dict(shadow_backend="gpu"))]
        assert all(e.graph is engines[0].graph for e in engines)
        for _ in range(3):
            for engine in engines:
                check_memoized(engine, 700, sightings=1)

    def test_policy_instance_bypasses_the_memo(self):
        engine = LlmNpuEngine(QWEN15_18B, REDMI_K70_PRO,
                              EngineConfig(policy=get_policy("ooo")))
        for _ in range(3):
            engine.prefill(300)
        assert prefill_memo_stats() == {"hits": 0, "misses": 0,
                                        "entries": 0}


class TestSharedFacts:
    @pytest.mark.parametrize("policy", ["ooo", "in-order"])
    @pytest.mark.parametrize("cached", [0, CHUNK + 1])
    def test_facts_match_an_unmemoized_trace(self, policy, cached):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                    policy=policy)
        want = oracle(engine, 700, cached)
        busy = want.trace.busy_by_processor()
        costs = parsed_chunk_costs(want, want.n_chunks)
        # a miss, the admitting second sighting, then hits
        reports = [engine.prefill(700, cached) for _ in range(4)]
        assert prefill_memo_stats() == {"hits": 2, "misses": 2,
                                        "entries": 1}
        for report in reports:
            assert dict(report.facts.busy_by_processor) == busy
            assert _prefill_chunk_costs(report, report.n_chunks) == costs
        assert reports[1].facts is reports[2].facts is reports[3].facts


    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("backend", ["cpu", "gpu"])
    def test_lane_facts_equal_a_regrouped_trace(self, policy, backend):
        # The facts read the simulator's lanes; a trace rebuilt from the
        # events alone regroups and sorts them.  Both must agree to the
        # last bit, on every processor.
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                    policy=policy, float_backend=backend)
        facts = engine.prefill(700).facts
        trace = Trace(list(facts.events))
        assert trace.lanes is None
        assert dict(facts.busy_by_processor) == trace.busy_by_processor()
        for proc in ("npu", "cpu", "gpu"):
            assert facts.bubble_rate(proc) == trace.bubble_rate(proc), proc
        assert sorted(facts.lanes) == trace.processors()


class TestMemoSafety:
    def test_mutating_a_returned_trace_does_not_leak(self):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        want = oracle(engine, 512)
        busy = want.trace.busy_by_processor()
        costs = parsed_chunk_costs(want, want.n_chunks)
        for _ in range(3):
            report = engine.prefill(512)
            assert report.trace.events == want.trace.events
            assert dict(report.facts.busy_by_processor) == busy
            assert _prefill_chunk_costs(report, report.n_chunks) == costs
            report.trace.events.clear()
            report.trace.events.append(want.trace.events[0])
            with pytest.raises(TypeError):
                report.facts.busy_by_processor["npu"] = 0.0
        assert prefill_memo_stats()["hits"] == 1

    def test_first_sighting_retains_no_trace(self):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        engine.prefill(512)
        assert prefill_memo_stats() == {"hits": 0, "misses": 1,
                                        "entries": 0}
        engine.prefill(500)     # same span: admitted on its second sighting
        assert prefill_memo_stats() == {"hits": 0, "misses": 2,
                                        "entries": 1}
        engine.prefill(510)
        assert prefill_memo_stats() == {"hits": 1, "misses": 2,
                                        "entries": 1}

    def test_reset_keeps_entries(self):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        for _ in range(3):
            engine.prefill(64)
        reset_prefill_memo_stats()
        assert prefill_memo_stats() == {"hits": 0, "misses": 0,
                                        "entries": 1}


class TestSharedGraphs:
    def test_equal_configs_share_one_graph(self):
        a = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        b = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        assert a.graph is b.graph
        assert a.builder is not b.builder

    def test_equal_specs_built_separately_share_by_content(self):
        twin = REDMI_K70_PRO.scaled(name=REDMI_K70_PRO.name,
                                    soc=REDMI_K70_PRO.soc, cpu_gpu=1.0,
                                    npu=1.0,
                                    dram_bytes=REDMI_K70_PRO.dram_bytes)
        assert twin is not REDMI_K70_PRO and twin == REDMI_K70_PRO
        a = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        b = LlmNpuEngine.build(QWEN15_18B, twin)
        assert a.graph is b.graph

    def test_same_name_different_specs_do_not_share(self):
        slower = REDMI_K70_PRO.scaled(name=REDMI_K70_PRO.name,
                                      soc=REDMI_K70_PRO.soc, cpu_gpu=1.0,
                                      npu=0.9,
                                      dram_bytes=REDMI_K70_PRO.dram_bytes)
        a = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        b = LlmNpuEngine.build(QWEN15_18B, slower)
        assert a.graph is not b.graph
        for _ in range(3):
            check_memoized(a, 300, sightings=1)
            check_memoized(b, 300, sightings=1)

    def test_spec_keys_are_derived_once_per_instance(self):
        twin = REDMI_K70_PRO.scaled(name=REDMI_K70_PRO.name,
                                    soc=REDMI_K70_PRO.soc, cpu_gpu=1.0,
                                    npu=1.0,
                                    dram_bytes=REDMI_K70_PRO.dram_bytes)
        LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        for spec in (REDMI_K70_PRO, REDMI_K70_PRO.npu, QWEN15_18B):
            assert "content_key" in vars(spec)
            assert spec.content_key is spec.content_key
        assert "content_key" not in vars(twin)
        assert twin.content_key == REDMI_K70_PRO.content_key
        assert twin.content_key is not REDMI_K70_PRO.content_key

    def test_replaced_processor_profile_gets_its_own_graph(self):
        a = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        npu = REDMI_K70_PRO.npu
        int8 = npu.matmul[DType.INT8]
        slower = dataclasses.replace(npu, matmul={
            **npu.matmul,
            DType.INT8: dataclasses.replace(int8,
                                            overhead_s=2 * int8.overhead_s)})
        device = dataclasses.replace(REDMI_K70_PRO, processors={
            **REDMI_K70_PRO.processors, "npu": slower})
        # replace builds fresh instances: no key is carried over
        assert "content_key" not in vars(slower)
        assert "content_key" not in vars(device)
        b = LlmNpuEngine.build(QWEN15_18B, device)
        assert b.graph is not a.graph
        assert device.content_key != REDMI_K70_PRO.content_key
        assert_same_report(b.prefill(700), oracle(b, 700))
        # and the original spec still finds its own graph
        assert LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO).graph is a.graph

    @pytest.mark.parametrize("change", [
        dict(pruning_rate=0.5), dict(chunk_len=128), dict(max_chunks=4),
        dict(float_backend="gpu"), dict(quant_mode="per-group"),
        dict(equivalent_shapes=False),
    ])
    def test_any_graph_input_change_gets_its_own_graph(self, change):
        a = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        b = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO, **change)
        assert a.graph is not b.graph

    def test_static_subgraphs_are_shared_across_chunks(self):
        graph = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO).graph
        first, last = graph.plan_for_chunk(0), graph.plan_for_chunk(3)
        for a, b in zip(first.subgraphs, last.subgraphs):
            assert (a is b) == a.static
        for key, spec in first.shadows.items():
            assert last.shadows[key] is spec

    def test_registry_never_exceeds_its_bound(self):
        engines = []
        for rate in (0.1, 0.2, 0.3, 0.4, 0.5, 0.1):
            engines.append(LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                              pruning_rate=rate))
            assert len(pipeline._PREPARED) <= MAX_PREPARED_GRAPHS
        # 0.1 was evicted (least recently used) and rebuilt
        assert engines[-1].graph is not engines[0].graph
        # an evicted graph keeps serving the engines bound to it
        check_memoized(engines[0], 300, sightings=3)

    def test_lookup_refreshes_recency(self):
        keep = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                  pruning_rate=0.1)
        for rate in (0.2, 0.3, 0.1, 0.4):
            LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO, pruning_rate=rate)
        again = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO,
                                   pruning_rate=0.1)
        assert again.graph is keep.graph


class TestDmaClone:
    def test_dma_clone_never_returns_the_base_memo_entry(self):
        engine = LlmNpuEngine.build(QWEN15_18B, REDMI_K70_PRO)
        for _ in range(3):      # base entry stored and hit
            base = engine.prefill(512)
        clone = engine_with_dma(engine, DmaConfig(buffers=1))
        assert clone.graph is not engine.graph
        assert clone.build_options.dma == DmaConfig(buffers=1)
        assert clone.graph.builder.options.dma == DmaConfig(buffers=1)
        want = oracle(clone, 512)
        assert want.latency_s != base.latency_s
        check_memoized(clone, 512, sightings=3)
        # and the base engine still reports its own DAG
        assert_same_report(engine.prefill(512), oracle(engine, 512))
