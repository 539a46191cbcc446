"""Prefill pipeline: lower chunk plans to tasks, simulate, summarize.

Static chunk shapes (§3.2) make a prefill DAG a pure function of the
chunk-plan span it covers, ``(first chunk, n_chunks)``, whatever the
prompt length.  :func:`prepare_graph` therefore keeps a small
process-wide registry of prepared chunk-sharing graphs, content-keyed so
that engines with equal (model, device, build options, chunk geometry,
shadow profiles) share one graph, and each :class:`PreparedGraph`
memoizes the prefills simulated on it: lowering and simulation run once
per distinct DAG per process, not once per prompt.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.dependency import build_task_graph
from repro.core.scheduler import get_policy
from repro.errors import EngineError
from repro.graph.builder import BuildOptions, ChunkPlan, GraphBuilder
from repro.graph.chunk import ChunkSharingGraph, padded_tokens
from repro.hw.sim import SchedulingPolicy, Simulator, Task
from repro.hw.soc import SocSpec
from repro.hw.trace import Trace, TraceEvent
from repro.core.results import PrefillReport
from repro.model.config import ModelConfig

#: Prepared graphs kept alive at once.  The least recently used one is
#: evicted, with its prefill memo, before a new graph is built, so the
#: registry never holds more.  A fleet device touches three graphs (one
#: per device tier); a service or a what-if run touches one.
MAX_PREPARED_GRAPHS = 3


def _padding(prompt_tokens: int, plans: List[ChunkPlan]) -> int:
    chunk_len = plans[0].chunk_len
    if len(plans) * chunk_len < prompt_tokens:
        return 0
    return padded_tokens(prompt_tokens, chunk_len)


def lower_prefill(
    plans: List[ChunkPlan],
    float_backend: str,
    include_shadow: bool,
    shadow_backend: Optional[str],
) -> Tuple[List[str], List[Task]]:
    """The processors, in dispatch order, and the task DAG one prefill
    of ``plans`` schedules."""
    tasks = build_task_graph(plans, float_proc=float_backend,
                             include_shadow=include_shadow,
                             shadow_proc=shadow_backend)
    processors = ["npu"]
    for proc in (float_backend, shadow_backend):
        if proc and proc not in processors:
            processors.append(proc)
    return processors, tasks


def run_prefill(
    plans: List[ChunkPlan],
    device: SocSpec,
    prompt_tokens: int,
    float_backend: str = "cpu",
    policy: str = "ooo",
    include_shadow: bool = True,
    extra_latency_s: float = 0.0,
    shadow_backend: str = None,
) -> PrefillReport:
    """Simulate the prefill of ``plans`` and summarize the trace.

    ``extra_latency_s`` is serial time added before execution (e.g. the
    per-prompt graph rebuild a naive engine pays).  ``shadow_backend``
    optionally runs the shadow MatMuls on a third processor.
    """
    if not plans:
        raise EngineError("run_prefill needs at least one chunk plan")
    if prompt_tokens <= 0:
        raise EngineError(f"prompt_tokens must be positive, got {prompt_tokens}")
    processors, tasks = lower_prefill(plans, float_backend, include_shadow,
                                      shadow_backend)
    simulator = Simulator(processors)
    scheduling = policy if isinstance(policy, SchedulingPolicy) else get_policy(policy)
    trace = simulator.run(tasks, scheduling)
    return PrefillReport(
        prompt_tokens=prompt_tokens,
        padded_tokens=_padding(prompt_tokens, plans),
        n_chunks=len(plans),
        latency_s=trace.makespan_s + extra_latency_s,
        trace=trace,
        npu_busy_s=trace.busy_seconds("npu"),
        float_busy_s=trace.busy_seconds(float_backend),
        npu_bubble_rate=trace.bubble_rate("npu"),
    )


# -- shared graphs and the prefill memo --------------------------------------

_MEMO_HITS = 0
_MEMO_MISSES = 0

#: A memo entry: the report without its trace, and the trace's events.
_Stored = Tuple[PrefillReport, Tuple[TraceEvent, ...]]


class PreparedGraph:
    """A chunk-sharing graph plus the memo of prefills simulated on it.

    The memo key is ``(first chunk index, n_chunks, float_backend,
    policy name, include_shadow, shadow_backend)``.  A key's first
    sighting stores only a marker; its second stores the report and the
    trace's frozen events, so DAGs that never repeat cost no trace
    memory.  Hits return a fresh report and a fresh :class:`Trace` over
    the stored events, so no caller can corrupt the memo.
    """

    def __init__(self, graph: ChunkSharingGraph):
        self.graph = graph
        self._memo: Dict[tuple, Optional[_Stored]] = {}

    @property
    def entries(self) -> int:
        """Memo entries that hold a trace."""
        return sum(1 for v in self._memo.values() if v is not None)

    def prefill(self, prompt_tokens: int, cached_tokens: int = 0,
                float_backend: str = "cpu", policy: str = "ooo",
                include_shadow: bool = True,
                shadow_backend: Optional[str] = None) -> PrefillReport:
        """:func:`run_prefill` over the graph's plans for this prompt,
        memoized; a :class:`SchedulingPolicy` instance bypasses the memo
        (it may carry state, and has no name to key on)."""
        global _MEMO_HITS, _MEMO_MISSES
        plans = self.graph.plans_for_prompt(prompt_tokens, cached_tokens)
        device = self.graph.builder.device
        if not isinstance(policy, str):
            return run_prefill(plans, device, prompt_tokens,
                               float_backend=float_backend, policy=policy,
                               include_shadow=include_shadow,
                               shadow_backend=shadow_backend)
        key = (plans[0].chunk_index, len(plans), float_backend, policy,
               include_shadow, shadow_backend)
        stored = self._memo.get(key)
        if stored is not None:
            _MEMO_HITS += 1
            report, events = stored
            return dataclasses.replace(
                report, prompt_tokens=prompt_tokens,
                padded_tokens=_padding(prompt_tokens, plans),
                trace=Trace(list(events)))
        _MEMO_MISSES += 1
        report = run_prefill(plans, device, prompt_tokens,
                             float_backend=float_backend, policy=policy,
                             include_shadow=include_shadow,
                             shadow_backend=shadow_backend)
        # Admit on the second sighting: a DAG seen once may never recur,
        # and the trace is the bulk of an entry's memory.
        self._memo[key] = ((dataclasses.replace(report, trace=None),
                            tuple(report.trace.events))
                           if key in self._memo else None)
        return report


_PREPARED: "OrderedDict[Hashable, PreparedGraph]" = OrderedDict()


def _content_key(obj) -> Hashable:
    """A hashable key that is equal for objects with equal contents.

    Specs such as :class:`~repro.hw.soc.SocSpec` hold dicts, so they
    are unhashable and cannot key a cache by themselves; identity would
    miss equal specs built separately.  A hashable value keys as itself
    with its type (so ``1`` and ``1.0`` key differently); unhashable
    dataclasses, dicts and sequences are unfolded recursively.
    """
    try:
        hash(obj)
    except TypeError:
        pass
    else:
        return (type(obj).__qualname__, obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__qualname__,) + tuple(
            _content_key(getattr(obj, f.name))
            for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return ("dict", frozenset((_content_key(k), _content_key(v))
                                  for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__,) + tuple(_content_key(v) for v in obj)
    raise TypeError(f"cannot key on a {type(obj).__qualname__}")


def prepare_graph(model: ModelConfig, device: SocSpec,
                  options: BuildOptions, chunk_len: int, max_chunks: int,
                  shadow_profiles: Optional[Dict] = None) -> PreparedGraph:
    """The shared prepared graph for this configuration.

    ``max_chunks`` is clamped to the model's context window.  Equal
    arguments, by content, return the same :class:`PreparedGraph`
    while it stays among the :data:`MAX_PREPARED_GRAPHS` most recently
    used.
    """
    max_chunks = min(max_chunks, max(1, model.max_context // chunk_len))
    key = _content_key((model, device, options, chunk_len, max_chunks,
                       shadow_profiles))
    prepared = _PREPARED.get(key)
    if prepared is not None:
        _PREPARED.move_to_end(key)
        return prepared
    while len(_PREPARED) >= MAX_PREPARED_GRAPHS:
        _PREPARED.popitem(last=False)
    prepared = PreparedGraph(ChunkSharingGraph(
        GraphBuilder(model, device, options), chunk_len, max_chunks,
        shadow_profiles))
    _PREPARED[key] = prepared
    return prepared


def prefill_memo_stats() -> Dict[str, int]:
    """Process-wide prefill memo hits and misses, and the trace-holding
    entries of the graphs currently prepared.

    Deliberately not mirrored into a service's metrics registry: the
    counts depend on what the process ran before, so a fleet report
    carrying them would depend on its worker count.
    """
    return {"hits": _MEMO_HITS, "misses": _MEMO_MISSES,
            "entries": sum(p.entries for p in _PREPARED.values())}


def reset_prefill_memo_stats() -> None:
    global _MEMO_HITS, _MEMO_MISSES
    _MEMO_HITS = 0
    _MEMO_MISSES = 0


def clear_prepared_graphs() -> None:
    """Drop every prepared graph and its memo (the next engine rebuilds)."""
    _PREPARED.clear()
