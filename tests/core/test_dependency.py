"""Tests for the task-graph construction (Eqs. 2-3 and shadow tasks)."""

import dataclasses

import pytest

from repro.core.dependency import (
    build_task_graph,
    count_cross_chunk_edges,
    shadow_id,
    sync_id,
    task_id,
)
from repro.core.engine import LlmNpuEngine
from repro.errors import DependencyError, SchedulingError
from repro.graph import GraphBuilder, SG_ATTN, SG_QKV
from repro.graph.builder import ShadowProfile
from repro.hw import REDMI_K70_PRO, Simulator
from repro.hw.sim import Task
from repro.model import tiny_config


@pytest.fixture(scope="module")
def builder():
    cfg = tiny_config(n_layers=3, hidden_size=128, n_heads=4,
                      ffn_hidden=256, max_context=2048)
    return GraphBuilder(cfg, REDMI_K70_PRO)


def plans(builder, n_chunks, shadow_profiles=None):
    return [builder.build_chunk(i, 64, shadow_profiles)
            for i in range(n_chunks)]


class TestTaskGraphStructure:
    def test_task_count_without_shadow(self, builder):
        tasks = build_task_graph(plans(builder, 2), include_shadow=False)
        # 3 layers x 6 subgraphs x 2 chunks
        assert len(tasks) == 36

    def test_shadow_adds_two_tasks_per_npu_subgraph(self, builder):
        base = build_task_graph(plans(builder, 1), include_shadow=False)
        with_shadow = build_task_graph(plans(builder, 1),
                                       include_shadow=True)
        # 3 NPU subgraphs per layer x 3 layers x (shadow + sync)
        assert len(with_shadow) == len(base) + 3 * 3 * 2

    def test_intra_chunk_chain(self, builder):
        tasks = {t.task_id: t for t in build_task_graph(
            plans(builder, 1), include_shadow=False)}
        # attention depends on qkv of the same chunk
        attn = tasks[task_id(0, 0, SG_ATTN)]
        assert task_id(0, 0, SG_QKV) in attn.deps

    def test_cross_chunk_attention_deps(self, builder):
        tasks = {t.task_id: t for t in build_task_graph(
            plans(builder, 3), include_shadow=False)}
        attn = tasks[task_id(2, 1, SG_ATTN)]
        # Eq. 2: needs QKV of chunks 0 and 1 at the same layer.
        assert task_id(0, 1, SG_QKV) in attn.deps
        assert task_id(1, 1, SG_QKV) in attn.deps

    def test_first_subgraph_of_every_chunk_is_root(self, builder):
        tasks = build_task_graph(plans(builder, 3), include_shadow=False)
        roots = [t for t in tasks if not t.deps]
        assert len(roots) == 3  # one pre-attn per chunk at layer 0

    def test_sync_gates_next_subgraph(self, builder):
        profiles = {0: ShadowProfile(), 1: ShadowProfile(pruned=True),
                    2: ShadowProfile(pruned=True)}
        tasks = {t.task_id: t for t in build_task_graph(
            plans(builder, 1, profiles))}
        # layer 0 unpruned: attention waits for qkv's sync
        attn = tasks[task_id(0, 0, SG_ATTN)]
        assert sync_id(0, 0, SG_QKV) in attn.deps
        # sync waits for both NPU half and shadow half
        sync = tasks[sync_id(0, 0, SG_QKV)]
        assert task_id(0, 0, SG_QKV) in sync.deps
        assert shadow_id(0, 0, SG_QKV) in sync.deps

    def test_pruned_layer_has_no_shadow_tasks(self, builder):
        profiles = {l: ShadowProfile(pruned=True) for l in range(3)}
        tasks = build_task_graph(plans(builder, 1, profiles))
        assert not any(t.tag in ("shadow", "sync") for t in tasks)

    def test_shadow_runs_on_float_processor(self, builder):
        tasks = build_task_graph(plans(builder, 1), float_proc="gpu")
        shadows = [t for t in tasks if t.tag == "shadow"]
        assert shadows
        assert all(t.proc == "gpu" for t in shadows)

    def test_empty_plans_raise(self):
        with pytest.raises(DependencyError):
            build_task_graph([])

    def test_cross_chunk_edge_count(self, builder):
        tasks = build_task_graph(plans(builder, 3), include_shadow=False)
        # per layer: chunk1 attn has 1, chunk2 attn has 2 -> 3 per layer
        assert count_cross_chunk_edges(tasks) == 3 * 3


class TestTaskGraphExecutes:
    @pytest.mark.parametrize("policy", ["fifo", "in-order", "ooo"])
    def test_runs_to_completion(self, builder, policy):
        from repro.core.scheduler import get_policy
        tasks = build_task_graph(plans(builder, 3))
        trace = Simulator(["npu", "cpu"]).run(tasks, get_policy(policy))
        assert len(trace.events) == len(tasks)
        trace.validate_serial()

    def test_dependencies_respected_in_trace(self, builder):
        from repro.core.scheduler import get_policy
        tasks = build_task_graph(plans(builder, 2))
        trace = Simulator(["npu", "cpu"]).run(tasks, get_policy("ooo"))
        end_times = {e.task_id: e.end_s for e in trace.events}
        start_times = {e.task_id: e.start_s for e in trace.events}
        for t in tasks:
            for d in t.deps:
                assert start_times[t.task_id] >= end_times[d] - 1e-12


def reference_lowering(plans, float_proc="cpu", include_shadow=True,
                       shadow_proc=None):
    """The lowering as it was: every task built through ``Task(...)``,
    every id through :func:`task_id`, :func:`shadow_id` and
    :func:`sync_id`."""
    shadow_proc = shadow_proc if shadow_proc is not None else float_proc
    scheduled = {plan.chunk_index for plan in plans}
    tasks = []
    for plan in plans:
        chunk = plan.chunk_index
        earlier = [c for c in range(chunk) if c in scheduled]
        gate = ()
        for sg in plan.subgraphs:
            layer, pos = sg.layer, sg.position
            deps = gate
            if pos == SG_ATTN:
                deps += tuple(task_id(c, layer, SG_QKV) for c in earlier)
            tid = task_id(chunk, layer, pos)
            index = layer * 6 + pos
            tasks.append(Task(
                tid, "npu" if sg.is_npu else float_proc, sg.latency_s, deps,
                f"sg{pos}" if sg.is_npu else f"sg{pos}.float", chunk, index,
                sum(op.matmul_ops for op in sg.ops)))
            gate = (tid,)
            spec = plan.shadows.get((layer, pos))
            if include_shadow and sg.is_npu and spec is not None \
                    and spec.enabled:
                sid = shadow_id(chunk, layer, pos)
                tasks.append(Task(sid, shadow_proc, spec.matmul_s + spec.disk_s,
                                  deps, "shadow", chunk, index,
                                  spec.matmul_ops))
                yid = sync_id(chunk, layer, pos)
                tasks.append(Task(yid, "npu", spec.sync_s, (tid, sid), "sync",
                                  chunk, index))
                gate = (yid,)
    return tasks


class TestLoweringMatchesTheReference:
    """Lowering builds ids from prefixes and tasks as plain tuples; every
    id, dep, tag and float must be what the per-task construction gave."""

    @pytest.mark.parametrize("model_name,rate,backend,shadow_proc", [
        ("Qwen1.5-1.8B", 0.85, "cpu", None),
        ("Gemma-2B", 0.1, "gpu", None),
        ("Phi-2-2.7B", 0.975, "cpu", "gpu"),
        ("Mistral-7B", 0.0, "npu", None),
    ])
    @pytest.mark.parametrize("cached_tokens", [0, 300])
    def test_engine_dags(self, model_name, rate, backend, shadow_proc,
                         cached_tokens):
        engine = LlmNpuEngine.build(model_name, "Redmi K60 Pro",
                                    pruning_rate=rate, float_backend=backend,
                                    max_chunks=4)
        blocks = engine._prepared.task_blocks()
        plans = engine.graph.plans_for_prompt(700, cached_tokens)
        for include_shadow in (True, False):
            want = reference_lowering(plans, backend, include_shadow,
                                      shadow_proc)
            for _ in range(2):  # lowered afresh, then from cached blocks
                got = build_task_graph(plans, backend, include_shadow,
                                       shadow_proc, blocks)
                assert all(type(t) is Task for t in got)
                assert [tuple(t) for t in got] == [tuple(t) for t in want]
                assert [repr(t.duration_s) for t in got] == \
                    [repr(t.duration_s) for t in want]

    def test_out_of_order_plans(self, builder):
        order = plans(builder, 3)[::-1]
        assert list(build_task_graph(order)) == reference_lowering(order)


class TestLoweringRejectsBadDurations:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_subgraph_latency(self, builder, bad):
        plan = builder.build_chunk(0, 64)
        plan.subgraphs[9] = dataclasses.replace(plan.subgraphs[9],
                                                latency_s=bad)
        plan.subgraphs[15] = dataclasses.replace(plan.subgraphs[15],
                                                 latency_s=bad)
        with pytest.raises(SchedulingError,
                           match=r"^task c0\.l1\.sg3: non-finite duration"):
            build_task_graph([plan])

    @pytest.mark.parametrize("field,bad,message", [
        ("matmul_s", -1.0, "c0.l2.sg5.shadow: negative"),
        ("disk_s", float("inf"), "c0.l2.sg5.shadow: non-finite"),
        ("sync_s", float("nan"), "c0.l2.sg5.sync: non-finite"),
    ])
    def test_shadow_durations(self, builder, field, bad, message):
        plan = builder.build_chunk(0, 64)
        key = (2, 5)
        plan.shadows[key] = dataclasses.replace(plan.shadows[key],
                                                **{field: bad})
        with pytest.raises(SchedulingError, match=f"^task {message}"):
            build_task_graph([plan])
        # without shadows the bad spec is never lowered
        build_task_graph([plan], include_shadow=False)
