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

from math import inf
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import DependencyError
from repro.graph.builder import ChunkPlan
from repro.graph.ops import Backend, SG_ATTN, SG_QKV, SUBGRAPHS_PER_BLOCK
from repro.hw.sim import Task


def task_id(chunk: int, layer: int, position: int) -> str:
    """Canonical id for a subgraph task."""
    return f"c{chunk}.l{layer}.sg{position}"


def shadow_id(chunk: int, layer: int, position: int) -> str:
    return f"c{chunk}.l{layer}.sg{position}.shadow"


def sync_id(chunk: int, layer: int, position: int) -> str:
    return f"c{chunk}.l{layer}.sg{position}.sync"


#: Each subgraph position as the last part of its task id.
_POSITIONS = tuple(map(str, range(SUBGRAPHS_PER_BLOCK)))

#: Task tag by subgraph position and backend, ``_TAGS[pos][is_npu]``:
#: every task of a position shares one string.
_TAGS = tuple((f"sg{pos}.float", f"sg{pos}")
              for pos in range(SUBGRAPHS_PER_BLOCK))


class TaskBlock(NamedTuple):
    """One lowered chunk, with the dependents of the DAG it ends.

    In a DAG whose plans are in chunk order, a block sits right after
    the blocks of its ``earlier`` chunks, so the DAG up to and including
    it, and the DAG indices of its tasks, depend only on its key (see
    :data:`TaskBlocks`).  ``positions`` and ``dependents`` are ``None``
    when that DAG cannot be indexed: an id repeats or a dependency does
    not resolve.
    """

    tasks: Tuple[Task, ...]
    #: Each task's DAG index by id, to resolve later blocks' Eq. 2 deps.
    positions: Optional[Dict[str, int]]
    #: Each task of the DAG ending with this block, its dependents as
    #: DAG indices, as :meth:`Simulator.run <repro.hw.sim.Simulator.run>`
    #: takes them.
    dependents: Optional[Tuple[Tuple[int, ...], ...]]


#: A lowered chunk's block by ``(chunk, scheduled earlier chunks,
#: float_proc, include_shadow, shadow_proc)``; see :func:`build_task_graph`.
TaskBlocks = Dict[tuple, TaskBlock]


class TaskList(list):
    """The tasks :func:`build_task_graph` returns.

    ``dependents`` holds each task's dependents as indices into the
    list, for :meth:`Simulator.run <repro.hw.sim.Simulator.run>`, or is
    ``None`` when the DAG has none.  Changing the list does not change
    ``dependents``.
    """

    __slots__ = ("dependents",)

    def __init__(self) -> None:
        super().__init__()
        self.dependents: Optional[Tuple[Tuple[int, ...], ...]] = None


def build_task_graph(
    plans: List[ChunkPlan],
    float_proc: str = "cpu",
    include_shadow: bool = True,
    shadow_proc: Optional[str] = None,
    blocks: Optional[TaskBlocks] = None,
) -> TaskList:
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

    Plans in increasing chunk order also get the DAG's ``dependents``,
    which its last block keeps (:class:`TaskBlock`).  Plans in any other
    order are lowered afresh, without them: a block's DAG indices hold
    only in chunk order.
    """
    if not plans:
        raise DependencyError("no chunk plans given")
    # Multi-turn reuse: plans may start beyond chunk 0 when earlier
    # chunks' KV is already cached from a previous turn — cross-chunk
    # dependencies only apply to chunks executed in *this* prefill.
    scheduled_chunks = {plan.chunk_index for plan in plans}
    shadow_proc = shadow_proc if shadow_proc is not None else float_proc
    in_order = all(a.chunk_index < b.chunk_index
                   for a, b in zip(plans, plans[1:]))
    if not in_order:
        blocks = None
    tasks = TaskList()
    lowered: List[TaskBlock] = []
    for plan in plans:
        earlier = tuple(c for c in range(plan.chunk_index)
                        if c in scheduled_chunks)
        key = (plan.chunk_index, earlier, float_proc, include_shadow,
               shadow_proc)
        block = None if blocks is None else blocks.get(key)
        if block is None:
            block = _lower_chunk(plan, earlier, float_proc, include_shadow,
                                 shadow_proc)
            block = (_link_block(block, lowered) if in_order
                     else TaskBlock(block, None, None))
            if blocks is not None:
                blocks[key] = block
        tasks.extend(block.tasks)
        lowered.append(block)
    tasks.dependents = lowered[-1].dependents
    return tasks


def _link_block(block: Tuple[Task, ...],
                before: List[TaskBlock]) -> TaskBlock:
    """``block`` placed right after the ``before`` blocks, with the
    dependents of the DAG it ends; the ``before`` blocks' ``positions``
    resolve its dependencies on them.  Ids are checked for repeats only
    within the block: every id lowering makes starts with its chunk."""
    prefix = before[-1].dependents if before else ()
    if prefix is None:
        return TaskBlock(block, None, None)
    offset = len(prefix)
    ids, _, _, deps = tuple(zip(*block))[:4]
    positions = dict(zip(ids, range(offset, offset + len(ids))))
    if len(positions) != len(ids):
        return TaskBlock(block, None, None)
    dependents = list(prefix)
    dependents += [()] * len(ids)
    for i, task_deps in enumerate(deps, offset):
        for d in task_deps:
            j = positions.get(d)
            if j is None:
                for prior in before:
                    j = prior.positions.get(d)
                    if j is not None:
                        break
                else:
                    return TaskBlock(block, None, None)
            dependents[j] += (i,)
    return TaskBlock(block, positions, tuple(dependents))


def _lower_chunk(plan: ChunkPlan, earlier: Tuple[int, ...], float_proc: str,
                 include_shadow: bool, shadow_proc: str) -> Tuple[Task, ...]:
    """The tasks of one chunk, whose attention also reads the QKV of the
    ``earlier`` scheduled chunks.

    Ids are built from per-chunk and per-layer prefixes, and are the
    strings :func:`task_id`, :func:`shadow_id` and :func:`sync_id` give.
    Tasks are built as plain tuples, and each distinct duration is then
    checked once, as :class:`Task` would check it.
    """
    chunk = plan.chunk_index
    shadows = plan.shadows if include_shadow else {}
    new = tuple.__new__
    tasks: List[Task] = []
    append = tasks.append
    gate: Tuple[str, ...] = ()  # deps for the next subgraph
    layer, stem, cross = None, "", ()
    for subgraph in plan.subgraphs:
        pos = subgraph.position
        if subgraph.layer != layer:
            layer = subgraph.layer
            at = f"l{layer}.sg"
            stem = f"c{chunk}." + at
            # Eq. 2: attention needs the QKV of every earlier chunk at
            # this layer (its own chunk's QKV is the intra-chunk dep).
            # Chunks cached from earlier turns have their KV already.
            cross = tuple(f"c{c}." + at + _POSITIONS[SG_QKV]
                          for c in earlier)
        deps = gate + cross if pos == SG_ATTN else gate
        tid = stem + _POSITIONS[pos]
        is_npu = subgraph.backend is Backend.NPU
        index = layer * 6 + pos
        # Task(task_id, proc, duration_s, deps, tag, chunk, subgraph, ops)
        append(new(Task, (
            tid, "npu" if is_npu else float_proc, subgraph.latency_s,
            deps, _TAGS[pos][is_npu], chunk, index, subgraph.matmul_ops,
        )))
        gate = (tid,)
        shadow_spec = shadows.get((layer, pos)) if is_npu else None
        if shadow_spec is not None and shadow_spec.enabled:
            sid = tid + ".shadow"
            append(new(Task, (
                sid, shadow_proc, shadow_spec.matmul_s + shadow_spec.disk_s,
                deps,  # same inputs as NPU half
                "shadow", chunk, index, shadow_spec.matmul_ops,
            )))
            # The merge synchronization stalls the NPU queue itself:
            # cache maintenance + driver fence + graph re-arm happen on
            # the accelerator side, so sync occupies the NPU (this is
            # the §3.3 overhead that importance pruning removes — the
            # paper measures it at 29.7% of end-to-end latency when no
            # layer is pruned).  sync_s is ~0 when float work shares
            # the NPU.
            yid = tid + ".sync"
            append(new(Task, (yid, "npu", shadow_spec.sync_s, (tid, sid),
                              "sync", chunk, index, 0.0)))
            gate = (yid,)
    for duration in set(map(itemgetter(2), tasks)):
        if not 0.0 <= duration < inf:
            for task in tasks:
                Task._make(task)  # raises Task's error for the first
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
