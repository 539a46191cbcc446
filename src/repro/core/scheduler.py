"""Out-of-order subgraph scheduling (§3.4).

Finding the makespan-optimal order is NP-hard (reducible to TSP), and the
chunk count varies per prompt, so llm.npu uses a microsecond-scale online
heuristic (Eq. 5): when a processor goes idle, among its ready subgraphs
pick the one with the largest *contribution to reducing NPU stalls*::

    C(g) = +sum(T_i for i in S(g))   if g runs on the CPU/GPU
    C(g) = -sum(T_i for i in S(g))   if g runs on the NPU

where ``S(g)`` is the set of **NPU** subgraphs that become ready the
moment ``g`` completes.  Intuition: the NPU is the critical path, so CPU
work that unlocks a lot of NPU work should run first; among NPU choices,
prefer those that *don't* immediately demand more NPU time, keeping the
CPU fed (it will unlock future NPU work during the NPU's busy period).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple, Type

from repro.hw.sim import FifoPolicy, SchedulingPolicy, SimContext, Task


def newly_ready_npu_time(task: Task, context: SimContext) -> float:
    """Total duration of NPU tasks that become ready right after ``task``.

    A dependent becomes ready iff ``task`` is its only unfinished
    dependency.
    """
    total = 0.0
    for dep_id in context.dependents.get(task.task_id, ()):
        dependent = context.tasks[dep_id]
        if dependent.proc != "npu":
            continue
        if context.remaining_deps(dep_id) == 1:
            # task is necessarily that remaining dependency
            total += dependent.duration_s
    return total


class OutOfOrderPolicy(SchedulingPolicy):
    """llm.npu's max-C heuristic (Eq. 5).

    Ties on C are broken by *shorter duration first* (then submission
    order): when two candidates unlock the same amount of NPU work, the
    cheaper one frees this processor sooner to unlock the next batch —
    a refinement that keeps the schedule monotone in the shadow-pruning
    rate without departing from Eq. 5's primary criterion.
    """

    name = "llm.npu-ooo"

    def select(self, proc: str, ready: List[Task],
               context: SimContext) -> Task:
        sign = -1.0 if proc == "npu" else 1.0

        def key(task: Task):
            return (sign * newly_ready_npu_time(task, context),
                    -task.duration_s,
                    -context.submit_index[task.task_id])

        return max(ready, key=key)


class NormalizedOooPolicy(SchedulingPolicy):
    """Eq. 5's contribution divided by the candidate's own duration.

    An extension beyond the paper: on a processor that is itself
    contended, unlocking NPU work *per second spent* matters more than
    the absolute amount.  Kept as an ablation point (the scheduler bench
    compares it against the paper's unnormalized heuristic).
    """

    name = "llm.npu-ooo-normalized"

    def select(self, proc: str, ready: List[Task],
               context: SimContext) -> Task:
        sign = -1.0 if proc == "npu" else 1.0

        def rate(task: Task) -> float:
            c = sign * newly_ready_npu_time(task, context)
            return c / max(task.duration_s, 1e-9)

        return max(
            ready,
            key=lambda t: (rate(t), -context.submit_index[t.task_id]),
        )


class LatencyGreedyPolicy(SchedulingPolicy):
    """Shortest-task-first — the "focus on execution latency" strawman the
    paper argues against; kept as an ablation point."""

    name = "latency-greedy"

    def key(self, task: Task, index: int) -> Tuple[float, int]:
        return (task.duration_s, index)


class ChunkOrderPolicy(SchedulingPolicy):
    """Lowest (chunk, subgraph) first among *ready* tasks — an
    opportunistic in-order variant that still skips over blocked work;
    kept as an ablation point between head-of-line and full OOO."""

    name = "chunk-order"

    def key(self, task: Task, index: int) -> Tuple[int, int, int]:
        return (task.chunk, task.subgraph, index)


class HeadOfLinePolicy(SchedulingPolicy):
    """True in-order execution — the naive overlap of Fig. 13(a).

    Each processor owns a command queue filled in program (chunk,
    subgraph) order and must execute it head-first: if the head's
    dependencies are not yet satisfied the processor *idles*, even though
    later entries in its queue are ready.  This is how a naive engine
    built on per-processor driver queues behaves, and it produces the
    ~37% NPU bubble rate the paper measures; out-of-order scheduling
    exists to remove exactly this head-of-line blocking.

    ``select`` is the full pending scan, kept as the independent
    definition :class:`~repro.hw.sim.ReferenceSimulator` runs;
    ``in_order`` lets :class:`~repro.hw.sim.Simulator` run the same queue
    as a per-processor heap of keys instead.
    """

    name = "in-order"
    in_order = True

    def key(self, task: Task, index: int) -> int:
        return index

    def select(self, proc: str, ready: List[Task],
               context: SimContext):
        pending_here = [
            t for t in context.tasks.values()
            if t.proc == proc and t.task_id not in context.completed
        ]
        # Exclude tasks currently running: a running task is neither
        # completed nor ready; it is this processor's busy slot, and
        # select() is only called when the processor is idle — so every
        # pending task here is either ready or blocked.
        head = min(
            pending_here,
            key=lambda t: self.key(t, context.submit_index[t.task_id]),
        )
        ready_ids = {t.task_id for t in ready}
        if head.task_id in ready_ids:
            return head
        return None  # head-of-line blocked: idle until the next event


class RequestQueue:
    """Deterministic request-level queue for the service layer (§3.1).

    The subgraph policies above order work *within* one inference; this
    queue orders whole requests *between* inferences.  Two modes:

    * ``'priority'`` — higher tier priority first, then earlier arrival,
      then lower request id (the multi-tenant scheduler's order);
    * ``'fifo'`` — pure arrival order (the single-queue baseline the
      seed service implemented).

    Entries are any objects exposing ``priority``, ``arrival_s`` and
    ``request_id`` (and ``tier.name`` for :meth:`tier_depths`); ties
    always resolve by request id, so the order is a pure function of
    the queue contents — no wall-clock or hash-order nondeterminism can
    leak in.

    The entries are kept as a key-sorted list, so the dispatch order is
    never re-sorted: the step loop reads it (and its ids and per-tier
    depths) every step, and those snapshots are cached until the next
    push or pop.

    With a :class:`~repro.obs.tracer.Tracer` attached, every push/pop
    that carries a sim-clock timestamp becomes an instant event on the
    ``service / scheduler`` track (with the queue depth after the
    operation), making dispatch decisions inspectable on the unified
    timeline.
    """

    def __init__(self, mode: str = "priority", tracer=None):
        if mode not in ("priority", "fifo"):
            from repro.errors import SchedulingError
            raise SchedulingError(
                f"unknown queue mode {mode!r}; use 'priority' or 'fifo'"
            )
        from repro.obs.tracer import as_tracer
        self.mode = mode
        self.tracer = as_tracer(tracer)
        self._entries: List[tuple] = []  # (key, entry), sorted by key
        self._invalidate()

    def _invalidate(self) -> None:
        self._order = self._ids = self._depths = None

    def key(self, entry) -> tuple:
        if self.mode == "priority":
            return (-entry.priority, entry.arrival_s, entry.request_id)
        return (entry.arrival_s, entry.request_id)

    def precedes(self, a, b) -> bool:
        """Would ``a`` be dispatched before ``b``?"""
        return self.key(a) < self.key(b)

    def push(self, entry, now_s: Optional[float] = None) -> None:
        bisect.insort(self._entries, (self.key(entry), entry))
        self._invalidate()
        if self.tracer.enabled and now_s is not None:
            self.tracer.instant(
                "queue.push", proc="service", thread="scheduler",
                ts_s=now_s, cat="scheduler", mode=self.mode,
                request_id=entry.request_id, depth=len(self._entries),
            )

    def pop(self, now_s: Optional[float] = None):
        entry = self._entries.pop(0)[1]
        self._invalidate()
        if self.tracer.enabled and now_s is not None:
            self.tracer.instant(
                "queue.pop", proc="service", thread="scheduler",
                ts_s=now_s, cat="scheduler", mode=self.mode,
                request_id=entry.request_id, depth=len(self._entries),
            )
        return entry

    def peek(self):
        return self._entries[0][1]

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self):
        """Entries in dispatch order (non-destructive)."""
        return iter(self._ordered())

    def _ordered(self) -> tuple:
        if self._order is None:
            self._order = tuple(entry for _, entry in self._entries)
        return self._order

    def ahead_of(self, entry) -> tuple:
        """The queued entries dispatched before ``entry``, in order."""
        return self._ordered()[:bisect.bisect_left(self._entries,
                                                  (self.key(entry),))]

    def ids(self) -> Tuple[int, ...]:
        """Request ids in dispatch order."""
        if self._ids is None:
            self._ids = tuple(entry.request_id for entry in self._ordered())
        return self._ids

    def tier_depths(self) -> Tuple[Tuple[str, int], ...]:
        """``(tier, depth)`` pairs, sorted by tier name."""
        if self._depths is None:
            depths: Dict[str, int] = {}
            for entry in self._ordered():
                depths[entry.tier.name] = depths.get(entry.tier.name, 0) + 1
            self._depths = tuple(sorted(depths.items()))
        return self._depths


# -- iteration-level batching (continuous batching with chunked prefill) ------


@dataclass(frozen=True)
class BatchConfig:
    """Knobs of the iteration-level step loop (Orca-style batching).

    ``max_batch_tokens`` caps the tokens one sim-clock step may process
    (prefill chunk tokens plus one token per decoding request);
    ``None`` means unbounded.  ``max_concurrency`` caps how many
    requests hold chunk-continuation state at once (``None`` =
    unbounded).  ``prefill_priority`` in [0, 1] is the TTFT-vs-ITL
    policy: the fraction of the post-decode token budget offered to
    prefill chunks while any request is decoding (1.0 = prefill-first,
    minimizes TTFT at the cost of stretched decodes; 0.0 =
    decode-first, minimizes ITL at the cost of delayed first tokens).
    ``kv_budget_bytes`` bounds the summed KV-cache reservations of
    in-flight requests (:func:`repro.graph.memory_plan.kv_cache_bytes`
    accounting); a request only starts when its projected full KV
    footprint fits.

    Any config, ``max_batch_tokens=None`` with ``max_concurrency=1``
    included, runs the step loop.  That one-request-at-a-time config
    matches the per-request schedule to floating-point telescoping
    error, not byte for byte.
    """

    max_batch_tokens: Optional[int] = None
    max_concurrency: Optional[int] = None
    prefill_priority: float = 0.5
    kv_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        from repro.errors import SchedulingError
        if (self.max_batch_tokens is not None
                and self.max_batch_tokens <= 0):
            raise SchedulingError("max_batch_tokens must be positive")
        if self.max_concurrency is not None and self.max_concurrency <= 0:
            raise SchedulingError("max_concurrency must be positive")
        if not 0.0 <= self.prefill_priority <= 1.0:
            raise SchedulingError(
                f"prefill_priority must be in [0, 1], "
                f"got {self.prefill_priority!r}"
            )
        if self.kv_budget_bytes is not None and self.kv_budget_bytes <= 0:
            raise SchedulingError("kv_budget_bytes must be positive")


@dataclass(frozen=True)
class StepItem:
    """One unit of work inside a step: a prefill chunk or a decode token.

    ``index`` is the chunk index (prefill) or output-token index
    (decode).  ``start_s``/``end_s`` are stamped by the service when the
    item executes; :func:`assemble_step` emits them as 0.
    """

    request_id: int
    kind: str  # 'prefill' | 'decode'
    tokens: int
    cost_s: float
    index: int
    start_s: float = 0.0
    end_s: float = 0.0


@dataclass(frozen=True)
class StepRecord:
    """Audit record of one executed step (the invariant tests read these).

    The telemetry fields after ``kv_reserved_bytes`` snapshot the queue
    state the moment the step was assembled: ``queued_ids`` is the
    waiting queue in dispatch order, ``queue_depths`` the per-tier
    ``(tier, depth)`` pairs (sorted), ``kv_blocked_id`` the head request
    deferred by the KV budget this step (if any), ``concurrency_full``
    whether the start loop stopped at ``max_concurrency``, and
    ``budget_tokens`` / ``kv_budget_bytes`` echo the governing
    :class:`BatchConfig` limits.  All default so existing constructions
    (and the PR-6 invariant suite) are unaffected.

    ``prefill_tokens`` / ``decode_tokens`` / ``batch_tokens`` are summed
    from ``items`` once, at construction: the step log, the monitor and
    the snapshot each read them, several times per step.
    """

    index: int
    start_s: float
    end_s: float
    items: Tuple["StepItem", ...]
    n_inflight: int
    kv_reserved_bytes: int
    queued_ids: Tuple[int, ...] = ()
    queue_depths: Tuple[Tuple[str, int], ...] = ()
    kv_blocked_id: Optional[int] = None
    concurrency_full: bool = False
    budget_tokens: Optional[int] = None
    kv_budget_bytes: Optional[int] = None
    prefill_tokens: int = field(init=False, repr=False, compare=False)
    decode_tokens: int = field(init=False, repr=False, compare=False)
    batch_tokens: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prefill = decode = 0
        for item in self.items:
            if item.kind == "prefill":
                prefill += item.tokens
            elif item.kind == "decode":
                decode += item.tokens
        object.__setattr__(self, "prefill_tokens", prefill)
        object.__setattr__(self, "decode_tokens", decode)
        object.__setattr__(self, "batch_tokens", prefill + decode)

    @property
    def queue_depth(self) -> int:
        """Total requests waiting (not yet started) at assembly time."""
        return len(self.queued_ids)

    @property
    def budget_utilization(self) -> Optional[float]:
        """``batch_tokens / budget_tokens`` (None when unbounded)."""
        if not self.budget_tokens:
            return None
        return self.batch_tokens / self.budget_tokens

    @property
    def kv_utilization(self) -> Optional[float]:
        """``kv_reserved_bytes / kv_budget_bytes`` (None when unbounded)."""
        if not self.kv_budget_bytes:
            return None
        return self.kv_reserved_bytes / self.kv_budget_bytes


class ChunkContinuation:
    """Chunk-continuation state of one in-flight request.

    Carried across steps by the step loop: ``cursor`` is the next
    prefill chunk to run (``chunk_lens``/``chunk_costs`` are the
    per-chunk token counts and simulated costs), ``decoded`` counts
    emitted output tokens, and ``kv_reserved_bytes`` is the request's
    full projected KV footprint, reserved for its whole residency (the
    vLLM-style conservative reservation — no mid-flight eviction).

    All fields are per-instance (``__slots__``, no class-level
    defaults), so two interleaved requests can never share cursor or
    residency state.  ``order_key`` (the priority queue's key),
    ``n_chunks`` and ``output_tokens`` are fixed at construction, so
    batch assembly reads plain attributes instead of re-deriving them
    every step.
    """

    __slots__ = (
        "request_id", "priority", "arrival_s", "dispatch_s", "tier_name",
        "chunk_lens", "chunk_costs", "chunk_offset", "token_costs",
        "kv_reserved_bytes", "retries", "retry_held_s",
        "cursor", "decoded", "prefill_end_s", "first_token_s",
        "order_key", "n_chunks", "output_tokens",
    )

    def __init__(self, request_id: int, priority: int, arrival_s: float,
                 dispatch_s: float, tier_name: str,
                 chunk_lens: List[int], chunk_costs: List[float],
                 chunk_offset: int, token_costs: List[float],
                 kv_reserved_bytes: int, retries: int = 0,
                 retry_held_s: float = 0.0):
        from repro.errors import SchedulingError
        if len(chunk_lens) != len(chunk_costs):
            raise SchedulingError(
                f"request {request_id}: {len(chunk_lens)} chunk lengths "
                f"vs {len(chunk_costs)} chunk costs"
            )
        self.request_id = request_id
        self.priority = priority
        self.arrival_s = arrival_s
        self.dispatch_s = dispatch_s
        self.tier_name = tier_name
        self.chunk_lens = list(chunk_lens)
        self.chunk_costs = list(chunk_costs)
        self.chunk_offset = chunk_offset
        self.token_costs = list(token_costs)
        self.kv_reserved_bytes = kv_reserved_bytes
        self.retries = retries
        self.retry_held_s = retry_held_s
        self.cursor = 0
        self.decoded = 0
        self.prefill_end_s: Optional[float] = None
        self.first_token_s: Optional[float] = None
        self.order_key = (-priority, arrival_s, request_id)
        self.n_chunks = len(self.chunk_lens)
        self.output_tokens = len(self.token_costs)

    @property
    def remaining_cost_s(self) -> float:
        """Engine time this request still needs (admission projections)."""
        return (sum(self.chunk_costs[self.cursor:])
                + sum(self.token_costs[self.decoded:]))


#: One planned unit of step work: ``(state, kind, tokens, cost_s,
#: index)``, the fields of a :class:`StepItem` with the request's
#: continuation in place of its id.
PlannedItem = Tuple[ChunkContinuation, str, int, float, int]

_order_key = attrgetter("order_key")


def plan_step(inflight: List[ChunkContinuation],
              max_batch_tokens: Optional[int],
              prefill_priority: float,
              rotation: int = 0) -> List[PlannedItem]:
    """Plan one step's batch from the in-flight continuation states.

    Assembly rules (DESIGN.md §"Step-loop scheduler"):

    1. every decoding request contributes one decode token — unless the
       decoder count alone exceeds the budget, in which case a
       round-robin window (``rotation``) picks which decoders advance;
    2. ``prefill_priority`` times the *full* budget (not the post-decode
       leftover, so the knob's reach does not shrink as decoders
       accumulate) is offered to prefill chunks in queue-key order
       (priority, arrival, id), head-of-line: the first chunk that does
       not fit stops prefill allocation for the step, so later requests
       cannot starve earlier ones.  Any nonzero knob setting schedules
       at least one chunk when one fits the leftover budget — prefill
       can only fully starve at exactly 0.0, and even then only while a
       decode population stands (decoders drain without prefill
       feeding them, so alternation, not starvation).  With no decoders
       the whole leftover goes to prefill regardless of the knob (the
       knob trades TTFT against ITL; with nothing decoding there is no
       trade to make);
    3. items are ordered prefill-first when ``prefill_priority >= 0.5``
       (new requests reach their first token sooner), decode-first
       otherwise (in-flight streams keep their cadence).

    Pure function of its arguments: no clocks, no randomness.
    ``inflight`` may be in any order (the service passes start order).
    """
    decoding: List[ChunkContinuation] = []
    prefilling: List[ChunkContinuation] = []
    for s in inflight:
        if s.cursor < s.n_chunks:
            prefilling.append(s)
        elif s.decoded < s.output_tokens:
            decoding.append(s)
    decoding.sort(key=_order_key)
    prefilling.sort(key=_order_key)
    budget = (math.inf if max_batch_tokens is None
              else float(max_batch_tokens))

    if decoding and len(decoding) > budget:
        window = int(budget)
        offset = rotation % len(decoding)
        decoding = [decoding[(offset + i) % len(decoding)]
                    for i in range(window)]
    decode_items: List[PlannedItem] = [
        (s, "decode", 1, s.token_costs[s.decoded], s.decoded)
        for s in decoding
    ]

    avail = budget - len(decode_items)
    if decode_items and prefill_priority < 1.0:
        target = (avail if avail == math.inf
                  else min(avail, float(math.floor(
                      budget * prefill_priority))))
    else:
        target = avail
    prefill_items: List[PlannedItem] = []
    remaining = target
    for s in prefilling:
        cursor = s.cursor
        blocked = False
        while cursor < s.n_chunks:
            tokens = s.chunk_lens[cursor]
            if tokens > remaining:
                # progress guarantee: any nonzero knob setting admits
                # at least one chunk per step (within the hard budget),
                # so a standing decode population cannot starve prefill
                if (prefill_priority > 0.0 and not prefill_items
                        and tokens <= avail):
                    pass
                else:
                    blocked = True
                    break
            prefill_items.append(
                (s, "prefill", tokens, s.chunk_costs[cursor], cursor))
            remaining -= tokens
            cursor += 1
        if blocked:
            break

    if prefill_priority >= 0.5:
        return prefill_items + decode_items
    return decode_items + prefill_items


def assemble_step(inflight: List[ChunkContinuation],
                  max_batch_tokens: Optional[int],
                  prefill_priority: float,
                  rotation: int = 0) -> List[StepItem]:
    """:func:`plan_step`'s batch as :class:`StepItem` values (times 0)."""
    return [StepItem(state.request_id, kind, tokens, cost_s, index)
            for state, kind, tokens, cost_s, index
            in plan_step(inflight, max_batch_tokens, prefill_priority,
                         rotation)]


#: Every scheduling policy :func:`get_policy` builds, by name.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    "ooo": OutOfOrderPolicy,
    "ooo-normalized": NormalizedOooPolicy,
    "in-order": HeadOfLinePolicy,
    "chunk-order": ChunkOrderPolicy,
    "fifo": FifoPolicy,
    "latency-greedy": LatencyGreedyPolicy,
}


def get_policy(name: str) -> SchedulingPolicy:
    """A fresh instance of the :data:`POLICIES` entry ``name``."""
    from repro.errors import SchedulingError
    try:
        return POLICIES[name]()
    except KeyError:
        raise SchedulingError(
            f"unknown policy {name!r}; available: {sorted(POLICIES)}"
        ) from None
