"""Task-graph construction with the paper's dependency rules (§3.4).

Two dependency classes govern correctness (Fig. 13):

* **Intra-chunk** (Eq. 3): subgraph ``G[i][j]`` needs ``G[i][j-1]`` — the
  data flow within one chunk's forward pass.
* **Cross-chunk** (Eq. 2): dynamic operators (attention) additionally need
  the KV-producing subgraph of every *earlier* chunk at the same layer —
  chunk ``i``'s attention reads the keys/values written by chunks
  ``0..i-1``.

Shadow outlier execution (§3.3) adds, per unpruned NPU subgraph, a CPU
shadow MatMul that can run concurrently with it, and a synchronization
task that merges the two results before the next subgraph may start.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import DependencyError
from repro.graph.builder import ChunkPlan
from repro.graph.ops import SG_ATTN, SG_QKV, SUBGRAPHS_PER_BLOCK
from repro.hw.sim import Task


def task_id(chunk: int, layer: int, position: int) -> str:
    """Canonical id for a subgraph task."""
    return f"c{chunk}.l{layer}.sg{position}"


def shadow_id(chunk: int, layer: int, position: int) -> str:
    return f"c{chunk}.l{layer}.sg{position}.shadow"


def sync_id(chunk: int, layer: int, position: int) -> str:
    return f"c{chunk}.l{layer}.sg{position}.sync"


#: Task tag by subgraph position and backend, ``_TAGS[pos][is_npu]``:
#: every task of a position shares one string.
_TAGS = tuple((f"sg{pos}.float", f"sg{pos}")
              for pos in range(SUBGRAPHS_PER_BLOCK))

#: A lowered chunk's tasks by ``(chunk, scheduled earlier chunks,
#: float_proc, include_shadow, shadow_proc)``; see :func:`build_task_graph`.
TaskBlocks = Dict[tuple, Tuple[Task, ...]]


def build_task_graph(
    plans: List[ChunkPlan],
    float_proc: str = "cpu",
    include_shadow: bool = True,
    shadow_proc: Optional[str] = None,
    blocks: Optional[TaskBlocks] = None,
) -> List[Task]:
    """Lower chunk plans into a :class:`~repro.hw.sim.Task` list.

    ``float_proc`` is the processor name for float subgraphs and syncs
    ('cpu' or 'gpu' — the Fig. 18 choice).  ``shadow_proc`` optionally
    places the shadow MatMuls on a *third* processor (e.g. attention on
    the GPU while the CPU handles shadow compensation) — an extension
    beyond the paper's two-processor prototype; defaults to
    ``float_proc``.

    The DAG is the concatenation of one task block per plan, and a block
    depends only on its plan, the scheduled chunks before it (Eq. 2) and
    the processor options.  ``blocks`` caches blocks under that key, so
    every plan of one chunk index must be the same plan: pass it only
    for plans of one chunk-sharing graph
    (:meth:`~repro.core.pipeline.PreparedGraph.task_blocks`).  The list
    returned is always fresh; its frozen tasks may be shared.
    """
    if not plans:
        raise DependencyError("no chunk plans given")
    # Multi-turn reuse: plans may start beyond chunk 0 when earlier
    # chunks' KV is already cached from a previous turn — cross-chunk
    # dependencies only apply to chunks executed in *this* prefill.
    scheduled_chunks = {plan.chunk_index for plan in plans}
    shadow_proc = shadow_proc if shadow_proc is not None else float_proc
    tasks: List[Task] = []
    for plan in plans:
        earlier = tuple(c for c in range(plan.chunk_index)
                        if c in scheduled_chunks)
        key = (plan.chunk_index, earlier, float_proc, include_shadow,
               shadow_proc)
        block = None if blocks is None else blocks.get(key)
        if block is None:
            block = _lower_chunk(plan, earlier, float_proc, include_shadow,
                                 shadow_proc)
            if blocks is not None:
                blocks[key] = block
        tasks.extend(block)
    return tasks


def _lower_chunk(plan: ChunkPlan, earlier: Tuple[int, ...], float_proc: str,
                 include_shadow: bool, shadow_proc: str) -> Tuple[Task, ...]:
    """The tasks of one chunk, whose attention also reads the QKV of the
    ``earlier`` scheduled chunks."""
    chunk = plan.chunk_index
    tasks: List[Task] = []
    gate: Tuple[str, ...] = ()  # deps for the next subgraph
    for subgraph in plan.subgraphs:
        layer, pos = subgraph.layer, subgraph.position
        deps = gate
        if pos == SG_ATTN:
            # Eq. 2: attention needs the QKV of every earlier chunk at
            # this layer (its own chunk's QKV is the intra-chunk dep).
            # Chunks cached from earlier turns have their KV already.
            deps += tuple(task_id(c, layer, SG_QKV) for c in earlier)
        tid = task_id(chunk, layer, pos)
        is_npu = subgraph.is_npu
        tasks.append(Task(
            task_id=tid,
            proc="npu" if is_npu else float_proc,
            duration_s=subgraph.latency_s,
            deps=deps,
            tag=_TAGS[pos][is_npu],
            chunk=chunk,
            subgraph=layer * 6 + pos,
            ops=subgraph.matmul_ops,
        ))
        gate = (tid,)
        shadow_spec = plan.shadows.get((layer, pos))
        if (include_shadow and is_npu and shadow_spec is not None
                and shadow_spec.enabled):
            sid = shadow_id(chunk, layer, pos)
            tasks.append(Task(
                task_id=sid,
                proc=shadow_proc,
                duration_s=(shadow_spec.matmul_s + shadow_spec.disk_s),
                deps=deps,  # same inputs as NPU half
                tag="shadow",
                chunk=chunk,
                subgraph=layer * 6 + pos,
                ops=shadow_spec.matmul_ops,
            ))
            # The merge synchronization stalls the NPU queue itself:
            # cache maintenance + driver fence + graph re-arm happen on
            # the accelerator side, so sync occupies the NPU (this is
            # the §3.3 overhead that importance pruning removes — the
            # paper measures it at 29.7% of end-to-end latency when no
            # layer is pruned).
            yid = sync_id(chunk, layer, pos)
            tasks.append(Task(
                task_id=yid,
                proc="npu",
                duration_s=shadow_spec.sync_s,
                deps=(tid, sid),
                tag="sync",
                chunk=chunk,
                subgraph=layer * 6 + pos,
            ))  # sync_s is ~0 when float work shares the NPU
            gate = (yid,)
    return tuple(tasks)


def count_cross_chunk_edges(tasks: List[Task]) -> int:
    """Number of Eq. 2 (cross-chunk) dependency edges — for diagnostics."""
    by_id = {t.task_id: t for t in tasks}
    count = 0
    for t in tasks:
        for d in t.deps:
            if by_id[d].chunk != t.chunk and by_id[d].chunk >= 0:
                count += 1
    return count
