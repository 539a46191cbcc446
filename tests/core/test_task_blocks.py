"""Chunk task blocks: each chunk lowered once per prepared graph.

The oracle is plain ``build_task_graph`` (no block cache) over chunk
plans built on a fresh :class:`GraphBuilder` with ``build_chunk`` — no
shared graph, no ``share_chunk``.  Cached lowering over a prepared
graph's shared plans must equal it task for task, in order, for every
span of chunks a prefill can schedule.
"""

import pytest

from repro.core.dependency import _link_block, build_task_graph
from repro.core.pipeline import (
    PreparedGraph,
    clear_prepared_graphs,
    lower_prefill,
)
from repro.errors import DependencyError
from repro.graph.builder import GraphBuilder, ShadowProfile
from repro.graph.chunk import ChunkSharingGraph
from repro.hw import REDMI_K70_PRO
from repro.hw.sim import Simulator, Task
from repro.model import tiny_config

CHUNK = 64
MAX_CHUNKS = 4
CONFIG = tiny_config(n_layers=3, hidden_size=128, n_heads=4,
                     ffn_hidden=256, max_context=2048)
#: Layer 1 pruned, so blocks hold both shadowed and bare NPU subgraphs.
PROFILES = {0: ShadowProfile(), 1: ShadowProfile(pruned=True),
            2: ShadowProfile()}
SPANS = [(first, n) for first in range(MAX_CHUNKS)
         for n in range(1, MAX_CHUNKS - first + 1)]
#: (float_proc, include_shadow, shadow_proc)
LOWERINGS = [(float_proc, shadow, shadow_proc)
             for float_proc in ("cpu", "gpu")
             for shadow in (True, False)
             for shadow_proc in (None, "gpu")]


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_prepared_graphs()
    yield
    clear_prepared_graphs()


def prepared(profiles=PROFILES):
    return PreparedGraph(ChunkSharingGraph(
        GraphBuilder(CONFIG, REDMI_K70_PRO), CHUNK, MAX_CHUNKS, profiles))


def span_plans(graph, first, n):
    return [graph.plan_for_chunk(i) for i in range(first, first + n)]


def test_cached_lowering_matches_fresh_plans():
    fresh = GraphBuilder(CONFIG, REDMI_K70_PRO)
    graph = prepared()
    # One cache for every lowering option, so keys must keep them apart;
    # longest spans first, so shorter spans hit blocks built for them.
    blocks = graph.task_blocks()
    for float_proc, shadow, shadow_proc in LOWERINGS:
        for first, n in sorted(SPANS, key=lambda s: -s[1]):
            want = build_task_graph(
                [fresh.build_chunk(i, CHUNK, PROFILES)
                 for i in range(first, first + n)],
                float_proc, shadow, shadow_proc)
            got = build_task_graph(
                span_plans(graph.graph, first, n), float_proc, shadow,
                shadow_proc, blocks=blocks)
            assert got == want, (first, n, float_proc, shadow, shadow_proc)


def id_dependents(tasks, processors):
    """Each task's dependents as :meth:`Simulator._index` resolves them
    from the task ids."""
    ids, procs, _, deps = list(zip(*tasks))[:4]
    return Simulator(processors)._index(
        list(tasks), ids, procs, deps, None)[1]


@pytest.mark.parametrize("longest_first", [True, False])
def test_cached_dependents_match_the_id_mapping(longest_first):
    # Every span, every lowering option, blocks built in either order:
    # a block's dependents were built by the first DAG that lowered it.
    graph = prepared()
    blocks = graph.task_blocks()
    spans = sorted(SPANS, key=lambda s: -s[1] if longest_first else s[1])
    for float_proc, shadow, shadow_proc in LOWERINGS:
        for first, n in spans:
            procs, tasks = lower_prefill(span_plans(graph.graph, first, n),
                                         float_proc, shadow, shadow_proc,
                                         blocks)
            assert ([list(d) for d in tasks.dependents]
                    == id_dependents(tasks, procs))
            uncached = build_task_graph(span_plans(graph.graph, first, n),
                                        float_proc, shadow, shadow_proc)
            assert uncached == tasks
            assert uncached.dependents == tasks.dependents


def test_a_repeated_dependency_counts_per_occurrence():
    block = _link_block((Task("c0.a", "cpu", 1.0),
                         Task("c0.b", "npu", 1.0, deps=("c0.a",) * 2),
                         Task("c0.c", "cpu", 1.0,
                              deps=("c0.b", "c0.a", "c0.b"))), [])
    assert block.dependents == ((1, 1, 2), (2, 2), ())


@pytest.mark.parametrize("tasks, error", [
    ((Task("x", "cpu", 1.0), Task("x", "cpu", 1.0)), "duplicate task ids"),
    ((Task("x", "cpu", 1.0, deps=("ghost",)),), "unknown dependency"),
])
def test_a_block_that_cannot_be_indexed_has_no_dependents(tasks, error):
    # Checked once, when the block is lowered; a later block inherits
    # the verdict, and the simulator's id path raises its usual error.
    block = _link_block(tasks, [])
    assert block.dependents is None and block.positions is None
    later = _link_block((Task("y", "cpu", 1.0),), [block])
    assert later.dependents is None
    with pytest.raises(DependencyError, match=error):
        Simulator(["cpu"]).run(list(tasks), dependents=block.dependents)


def test_a_block_is_shared_across_spans():
    graph = prepared()
    blocks = graph.task_blocks()
    long = build_task_graph(span_plans(graph.graph, 0, 3), blocks=blocks)
    short = build_task_graph(span_plans(graph.graph, 0, 2), blocks=blocks)
    assert short == long[:len(short)]
    assert all(a is b for a, b in zip(short, long))
    # A later first chunk changes the Eq. 2 deps, so it is its own block.
    later = build_task_graph(span_plans(graph.graph, 1, 2), blocks=blocks)
    assert not any(t is u for t in later for u in long)


def test_appending_to_a_returned_dag_leaves_the_next_one_alone():
    graph = prepared()
    blocks = graph.task_blocks()
    plans = span_plans(graph.graph, 0, 2)
    first = build_task_graph(plans, blocks=blocks)
    n = len(first)
    first.append(first[0])
    assert len(build_task_graph(plans, blocks=blocks)) == n
    processors, tasks = lower_prefill(plans, "cpu", True, None, blocks)
    tasks.clear()
    assert len(lower_prefill(plans, "cpu", True, None, blocks)[1]) == n


def test_only_the_graph_lowered_last_keeps_blocks():
    a = prepared()
    b = prepared(profiles=None)
    a.prefill(CHUNK * 2)
    assert a._blocks
    b.prefill(CHUNK * 2)
    assert not a._blocks and b._blocks
    # A memo hit lowers nothing, so it leaves the blocks where they are.
    b.prefill(CHUNK * 2)
    b.prefill(CHUNK * 2)
    assert not a._blocks
    a.prefill(CHUNK)
    assert a._blocks and not b._blocks
    clear_prepared_graphs()
    assert not a._blocks


def test_subgraph_matmul_ops_sums_its_ops():
    graph = prepared()
    for chunk in range(MAX_CHUNKS):
        for subgraph in graph.graph.plan_for_chunk(chunk).subgraphs:
            assert subgraph.matmul_ops == sum(op.matmul_ops
                                              for op in subgraph.ops)
    assert any(subgraph.matmul_ops > 0
               for subgraph in graph.graph.plan_for_chunk(0).subgraphs)
