"""Discrete-event simulator for heterogeneous task graphs.

Tasks carry a processor assignment, a duration (from the latency models),
and dependencies.  The simulator enforces the paper's Eq. 4 constraint —
each processor executes exactly one subgraph at a time — and delegates the
*choice* among ready tasks to a pluggable :class:`SchedulingPolicy`, which
is where llm.npu's out-of-order heuristic (§3.4) plugs in.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.errors import (
    DependencyError,
    PermanentEngineError,
    SchedulingError,
    TransientEngineError,
)
from repro.hw.trace import Trace, TraceEvent


@dataclass(frozen=True)
class FaultSpec:
    """Configuration of the deterministic fault-injection hook.

    ``transient_rate`` / ``permanent_rate`` are per-execution fault
    probabilities drawn from a seeded stream (so a given spec always
    injects the same faults at the same execution indices).  ``script``
    overrides the stochastic draws entirely with an explicit per-draw
    fault sequence — the handle the tests use to pin failures to exact
    attempts; draws past the end of the script are fault-free.
    """

    transient_rate: float = 0.0
    permanent_rate: float = 0.0
    seed: int = 0
    script: Optional[Tuple[Optional[str], ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.transient_rate <= 1.0:
            raise SchedulingError("transient_rate must be in [0, 1]")
        if not 0.0 <= self.permanent_rate <= 1.0:
            raise SchedulingError("permanent_rate must be in [0, 1]")
        if self.transient_rate + self.permanent_rate > 1.0:
            raise SchedulingError("fault rates must sum to at most 1")
        if self.script is not None:
            for kind in self.script:
                if kind not in (None, "transient", "permanent"):
                    raise SchedulingError(
                        f"unknown scripted fault kind {kind!r}"
                    )


class FaultInjector:
    """Seeded deterministic fault source for engine executions.

    Engines call :meth:`check` once per execution attempt; the injector
    either returns silently or raises a typed
    :class:`~repro.errors.EngineError` subclass.  Draws are consumed from
    a seeded RNG (or a fixed script), so the fault pattern is a pure
    function of the spec and the attempt sequence.  While suspended (see
    :meth:`suspended`), checks are free: no draw is consumed and no fault
    fires — the service layer uses this for cost *estimation* runs that
    must not perturb the fault stream.

    With a :class:`~repro.obs.tracer.Tracer` attached (see
    :meth:`attach_tracer`), every consumed draw becomes an instant event
    on the ``service / faults`` track, stamped with the sim-clock time
    the caller passes to :meth:`check` — tracing observes the draw
    stream without perturbing it.
    """

    def __init__(self, spec: Optional[FaultSpec] = None):
        self.spec = spec if spec is not None else FaultSpec()
        self._rng = np.random.default_rng(self.spec.seed)
        self._n_draws = 0
        self._n_injected: Dict[str, int] = {"transient": 0, "permanent": 0}
        self._suspend_depth = 0
        self._tracer = None
        self._trace_track = ("service", "faults")
        self._listeners: List = []

    def attach_tracer(self, tracer, proc: str = "service",
                      thread: str = "faults") -> None:
        """Mirror every consumed draw onto ``tracer`` as instant events."""
        self._tracer = tracer if tracer is not None and tracer.enabled \
            else None
        self._trace_track = (proc, thread)

    def add_listener(self, listener) -> None:
        """Register a draw-stream consumer.

        ``listener`` is called as ``listener(index, kind, now_s)`` for
        every *consumed* draw (``kind`` is ``None`` for a clean draw);
        suspended checks consume nothing and notify nobody, so cost
        estimation stays invisible.  Listeners observe after the draw is
        fully decided — they cannot perturb the fault stream.  This is
        the hook SLO monitors use to cross-link alert windows to
        injected faults.
        """
        if not callable(listener):
            raise SchedulingError("fault listener must be callable")
        self._listeners.append(listener)

    def draw(self, now_s: float = 0.0) -> Optional[str]:
        """One fault draw: ``None``, ``'transient'`` or ``'permanent'``."""
        if self._suspend_depth > 0:
            return None
        index = self._n_draws
        self._n_draws += 1
        if self.spec.script is not None:
            kind = (self.spec.script[index]
                    if index < len(self.spec.script) else None)
        else:
            u = float(self._rng.random())
            if u < self.spec.permanent_rate:
                kind = "permanent"
            elif u < self.spec.permanent_rate + self.spec.transient_rate:
                kind = "transient"
            else:
                kind = None
        if kind is not None:
            self._n_injected[kind] += 1
        if self._tracer is not None:
            proc, thread = self._trace_track
            self._tracer.instant(
                f"fault.{kind or 'ok'}", proc=proc, thread=thread,
                ts_s=now_s, cat="fault", draw=index,
                kind=kind or "ok",
            )
        for listener in self._listeners:
            listener(index, kind, now_s)
        return kind

    def check(self, now_s: float = 0.0) -> None:
        """Raise the typed error for this execution attempt, if any.

        ``now_s`` is the caller's sim-clock time, used only to timestamp
        the trace event for this draw.
        """
        kind = self.draw(now_s)
        if kind == "transient":
            raise TransientEngineError(
                f"injected transient engine fault (draw #{self._n_draws})"
            )
        if kind == "permanent":
            raise PermanentEngineError(
                f"injected permanent engine fault (draw #{self._n_draws})"
            )

    @contextmanager
    def suspended(self):
        """Context manager: no draws are consumed, no faults fire."""
        self._suspend_depth += 1
        try:
            yield self
        finally:
            self._suspend_depth -= 1

    @property
    def n_draws(self) -> int:
        return self._n_draws

    def n_injected(self, kind: str) -> int:
        return self._n_injected[kind]


@dataclass(frozen=True)
class Task:
    """A schedulable unit (one subgraph execution, sync, etc.)."""

    task_id: str
    proc: str
    duration_s: float
    deps: Tuple[str, ...] = ()
    tag: str = ""
    chunk: int = -1
    subgraph: int = -1
    ops: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise SchedulingError(
                f"task {self.task_id}: negative duration"
            )


class SchedulingPolicy:
    """Chooses which ready task a newly-idle processor runs next.

    ``select`` may return ``None`` to deliberately keep the processor idle
    until the next completion event — how head-of-line-blocking command
    queues behave (see :class:`HeadOfLinePolicy`).
    """

    name = "base"

    def select(self, proc: str, ready: List[Task],
               context: "SimContext") -> Optional[Task]:
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """Submission-order (in-order) scheduling — the naive overlap baseline
    of Fig. 13(a)."""

    name = "fifo"

    def select(self, proc: str, ready: List[Task],
               context: "SimContext") -> Task:
        return min(ready, key=lambda t: context.submit_index[t.task_id])


@dataclass
class SimContext:
    """Read-only state handed to policies at each decision point."""

    tasks: Mapping[str, Task]
    submit_index: Mapping[str, int]
    dependents: Mapping[str, Tuple[str, ...]]
    completed: Set[str]
    now_s: float
    #: Live unfinished-dependency counts maintained incrementally by the
    #: simulator (distinct deps).  Policies see a consistent view: the
    #: counts are only read at dispatch points, after every completion
    #: of the current sim instant has been folded in.
    missing: Optional[Mapping[str, int]] = None
    #: Tasks whose ``deps`` tuple contains duplicates — for those the
    #: incremental count (which de-duplicates) disagrees with the
    #: historical definition below, so they take the slow path.
    dup_deps: frozenset = frozenset()

    def remaining_deps(self, task_id: str) -> int:
        missing = self.missing
        if missing is not None and task_id not in self.dup_deps:
            return missing[task_id]
        task = self.tasks[task_id]
        return sum(1 for d in task.deps if d not in self.completed)


class Simulator:
    """List scheduler over a fixed set of serial processors.

    Two execution strategies, both producing byte-identical traces:

    * an **index-based fast path** for :class:`FifoPolicy` — task ids and
      processors are interned to integer slots up front, each processor's
      ready set is a min-heap of submit indices (FIFO selection is exactly
      "smallest submit index"), and trace events are materialized in one
      batch at the end.  No per-event list copies, no policy callbacks,
      no per-task dict churn;
    * a **generic path** for pluggable policies, sharing the reference
      structure but feeding policies an incrementally-maintained
      unfinished-dependency count through :attr:`SimContext.missing`
      (``remaining_deps`` drops from O(deps) to O(1), which is the inner
      loop of the out-of-order heuristic's Eq. 5 contribution scan).

    :class:`ReferenceSimulator` keeps the original per-event loop as the
    executable specification; ``benchmarks/bench_sim_speed.py`` measures
    the fast paths against it and ``tests/hw/test_sim_vectorized.py``
    pins trace equality.
    """

    def __init__(self, processor_names: Iterable[str]):
        self.processor_names = list(processor_names)
        if not self.processor_names:
            raise SchedulingError("simulator needs at least one processor")

    def _validate(self, tasks: List[Task]) -> Dict[str, Task]:
        by_id = {t.task_id: t for t in tasks}
        if len(by_id) != len(tasks):
            raise DependencyError("duplicate task ids")
        known = set(self.processor_names)
        for t in tasks:
            if t.proc not in known:
                raise DependencyError(
                    f"task {t.task_id}: unknown processor {t.proc!r}"
                )
            for d in t.deps:
                if d not in by_id:
                    raise DependencyError(
                        f"task {t.task_id}: unknown dependency {d!r}"
                    )
        return by_id

    def run(self, tasks: List[Task],
            policy: Optional[SchedulingPolicy] = None) -> Trace:
        """Execute the task graph; returns the trace.

        Raises :class:`DependencyError` for unknown/cyclic dependencies or
        tasks assigned to unknown processors.
        """
        policy = policy if policy is not None else FifoPolicy()
        by_id = self._validate(tasks)
        # Exact-type check: a FifoPolicy subclass may override select().
        if type(policy) is FifoPolicy:
            return self._run_fifo(tasks)
        return self._run_generic(tasks, policy, by_id)

    # -- FIFO fast path -------------------------------------------------------

    def _run_fifo(self, tasks: List[Task]) -> Trace:
        """Index-based FIFO schedule (selection = min submit index).

        Equivalent to the generic loop under :class:`FifoPolicy` by
        construction: FIFO selection keys (submit indices) are unique, so
        a per-processor min-heap makes exactly the choices the reference
        ``min()`` scan makes, and dispatch order (processors in
        declaration order, one task per newly-idle processor) is
        preserved, so the trace is byte-identical.
        """
        n = len(tasks)
        proc_names = self.processor_names
        proc_index = {p: i for i, p in enumerate(proc_names)}
        n_procs = len(proc_names)
        id_index = {t.task_id: i for i, t in enumerate(tasks)}
        task_proc = [proc_index[t.proc] for t in tasks]
        durations = [t.duration_s for t in tasks]

        missing = [0] * n
        dependents: List[List[int]] = [[] for _ in range(n)]
        for i, t in enumerate(tasks):
            unique = set(t.deps)
            missing[i] = len(unique)
            for d in unique:
                dependents[id_index[d]].append(i)

        ready_heaps: List[List[int]] = [[] for _ in range(n_procs)]
        for i in range(n):
            if missing[i] == 0:
                ready_heaps[task_proc[i]].append(i)
        # Initial ready sets are filled in submission order — already
        # heap-ordered, but heapify keeps the invariant explicit.
        for heap in ready_heaps:
            heapq.heapify(heap)

        done = [False] * n
        proc_busy = [False] * n_procs
        # (finish_time, seq, slot) heap of running tasks; seq breaks ties
        # exactly like the reference's itertools.count() stream.
        running: List[Tuple[float, int, int]] = []
        # Dispatch log: (slot, start_s, end_s) in trace-append order.
        dispatched: List[Tuple[int, float, float]] = []
        seq = 0
        now = 0.0
        n_done = 0

        heappush, heappop = heapq.heappush, heapq.heappop

        def dispatch() -> None:
            nonlocal seq
            for p in range(n_procs):
                if proc_busy[p]:
                    continue
                heap = ready_heaps[p]
                if not heap:
                    continue
                i = heappop(heap)
                proc_busy[p] = True
                end = now + durations[i]
                heappush(running, (end, seq, i))
                seq += 1
                dispatched.append((i, now, end))

        dispatch()
        while running:
            now, _, finished = heappop(running)
            proc_busy[task_proc[finished]] = False
            done[finished] = True
            n_done += 1
            # Drain co-terminating tasks so dispatch sees all frees at once.
            while running and running[0][0] == now:
                _, _, other = heappop(running)
                proc_busy[task_proc[other]] = False
                done[other] = True
                n_done += 1
                for dep in dependents[other]:
                    missing[dep] -= 1
                    if missing[dep] == 0:
                        heappush(ready_heaps[task_proc[dep]], dep)
            for dep in dependents[finished]:
                missing[dep] -= 1
                if missing[dep] == 0:
                    heappush(ready_heaps[task_proc[dep]], dep)
            dispatch()

        if n_done != n:
            stuck = [t.task_id for i, t in enumerate(tasks) if not done[i]]
            raise DependencyError(
                f"deadlock: {len(stuck)} tasks never became ready "
                f"(cyclic dependencies?): {stuck[:5]}"
            )
        trace = Trace()
        events = trace.events
        for i, start, end in dispatched:
            t = tasks[i]
            events.append(TraceEvent(t.task_id, proc_names[task_proc[i]],
                                     start, end, t.tag, ops=t.ops))
        trace.validate_serial()
        return trace

    # -- generic (pluggable-policy) path --------------------------------------

    def _run_generic(self, tasks: List[Task], policy: SchedulingPolicy,
                     by_id: Dict[str, Task]) -> Trace:
        submit_index = {t.task_id: i for i, t in enumerate(tasks)}
        dependents: Dict[str, List[str]] = {t.task_id: [] for t in tasks}
        missing: Dict[str, int] = {}
        dup_deps = set()
        for t in tasks:
            unique = set(t.deps)
            missing[t.task_id] = len(unique)
            if len(unique) != len(t.deps):
                dup_deps.add(t.task_id)
            for d in unique:
                dependents[d].append(t.task_id)

        ready: Dict[str, List[Task]] = {p: [] for p in self.processor_names}
        for t in tasks:
            if missing[t.task_id] == 0:
                ready[t.proc].append(t)

        completed: Set[str] = set()
        context = SimContext(
            tasks=by_id,
            submit_index=submit_index,
            dependents={k: tuple(v) for k, v in dependents.items()},
            completed=completed,
            now_s=0.0,
            missing=missing,
            dup_deps=frozenset(dup_deps),
        )

        trace = Trace()
        # (finish_time, seq, task) heap of running tasks; seq breaks ties.
        running: List[Tuple[float, int, Task]] = []
        seq = itertools.count()
        proc_busy: Dict[str, bool] = {p: False for p in self.processor_names}
        now = 0.0
        n_done = 0

        def dispatch() -> None:
            context.now_s = now
            for proc in self.processor_names:
                if proc_busy[proc] or not ready[proc]:
                    continue
                task = policy.select(proc, list(ready[proc]), context)
                if task is None:
                    continue  # policy keeps the processor idle for now
                if task not in ready[proc]:
                    raise SchedulingError(
                        f"policy {policy.name!r} selected a non-ready task"
                    )
                ready[proc].remove(task)
                proc_busy[proc] = True
                end = now + task.duration_s
                heapq.heappush(running, (end, next(seq), task))
                trace.add(TraceEvent(task.task_id, proc, now, end, task.tag,
                                     ops=task.ops))

        dispatch()
        while running:
            now, _, finished = heapq.heappop(running)
            proc_busy[finished.proc] = False
            completed.add(finished.task_id)
            n_done += 1
            # Drain co-terminating tasks so dispatch sees all frees at once.
            while running and running[0][0] == now:
                _, _, other = heapq.heappop(running)
                proc_busy[other.proc] = False
                completed.add(other.task_id)
                n_done += 1
                for dep_id in dependents[other.task_id]:
                    missing[dep_id] -= 1
                    if missing[dep_id] == 0:
                        t = by_id[dep_id]
                        ready[t.proc].append(t)
            for dep_id in dependents[finished.task_id]:
                missing[dep_id] -= 1
                if missing[dep_id] == 0:
                    t = by_id[dep_id]
                    ready[t.proc].append(t)
            dispatch()

        if n_done != len(tasks):
            stuck = [t.task_id for t in tasks if t.task_id not in completed]
            raise DependencyError(
                f"deadlock: {len(stuck)} tasks never became ready "
                f"(cyclic dependencies?): {stuck[:5]}"
            )
        trace.validate_serial()
        return trace


class ReferenceSimulator(Simulator):
    """The original per-event simulator loop, kept as the executable spec.

    Byte-for-byte the pre-vectorization implementation: per-dispatch
    ready-list copies, O(ready) policy scans, per-dependency recount in
    ``remaining_deps`` (no :attr:`SimContext.missing`).  The speedup
    benchmark (``benchmarks/bench_sim_speed.py``) measures
    :class:`Simulator` against this on identical task graphs, and the
    equivalence tests require identical traces — so the fast paths can
    never silently drift from the specified schedule.  It is also the
    ground truth :func:`repro.obs.whatif.resimulate` checks the what-if
    estimator's ``Simulator``-based predictions against.
    """

    def run(self, tasks: List[Task],
            policy: Optional[SchedulingPolicy] = None) -> Trace:
        policy = policy if policy is not None else FifoPolicy()
        by_id = self._validate(tasks)

        submit_index = {t.task_id: i for i, t in enumerate(tasks)}
        dependents: Dict[str, List[str]] = {t.task_id: [] for t in tasks}
        missing: Dict[str, int] = {}
        for t in tasks:
            missing[t.task_id] = len(set(t.deps))
            for d in set(t.deps):
                dependents[d].append(t.task_id)

        ready: Dict[str, List[Task]] = {p: [] for p in self.processor_names}
        for t in tasks:
            if missing[t.task_id] == 0:
                ready[t.proc].append(t)

        completed: Set[str] = set()
        context = SimContext(
            tasks=by_id,
            submit_index=submit_index,
            dependents={k: tuple(v) for k, v in dependents.items()},
            completed=completed,
            now_s=0.0,
        )

        trace = Trace()
        running: List[Tuple[float, int, Task]] = []
        seq = itertools.count()
        proc_busy: Dict[str, bool] = {p: False for p in self.processor_names}
        now = 0.0
        n_done = 0

        def dispatch() -> None:
            for proc in self.processor_names:
                if proc_busy[proc] or not ready[proc]:
                    continue
                context.now_s = now
                task = policy.select(proc, list(ready[proc]), context)
                if task is None:
                    continue
                if task not in ready[proc]:
                    raise SchedulingError(
                        f"policy {policy.name!r} selected a non-ready task"
                    )
                ready[proc].remove(task)
                proc_busy[proc] = True
                end = now + task.duration_s
                heapq.heappush(running, (end, next(seq), task))
                trace.add(TraceEvent(task.task_id, proc, now, end, task.tag,
                                     ops=task.ops))

        dispatch()
        while running:
            now, _, finished = heapq.heappop(running)
            proc_busy[finished.proc] = False
            completed.add(finished.task_id)
            n_done += 1
            while running and running[0][0] == now:
                _, _, other = heapq.heappop(running)
                proc_busy[other.proc] = False
                completed.add(other.task_id)
                n_done += 1
                for dep_id in dependents[other.task_id]:
                    missing[dep_id] -= 1
                    if missing[dep_id] == 0:
                        t = by_id[dep_id]
                        ready[t.proc].append(t)
            for dep_id in dependents[finished.task_id]:
                missing[dep_id] -= 1
                if missing[dep_id] == 0:
                    t = by_id[dep_id]
                    ready[t.proc].append(t)
            dispatch()

        if n_done != len(tasks):
            stuck = [t.task_id for t in tasks if t.task_id not in completed]
            raise DependencyError(
                f"deadlock: {len(stuck)} tasks never became ready "
                f"(cyclic dependencies?): {stuck[:5]}"
            )
        trace.validate_serial()
        return trace


def critical_path_s(tasks: List[Task]) -> float:
    """Length of the dependency critical path (infinite processors bound)."""
    by_id = {t.task_id: t for t in tasks}
    finish: Dict[str, float] = {}

    def resolve(task_id: str, stack: Set[str]) -> float:
        if task_id in finish:
            return finish[task_id]
        if task_id in stack:
            raise DependencyError(f"cycle involving {task_id!r}")
        stack.add(task_id)
        task = by_id[task_id]
        start = max((resolve(d, stack) for d in task.deps), default=0.0)
        stack.remove(task_id)
        finish[task_id] = start + task.duration_s
        return finish[task_id]

    return max((resolve(t.task_id, set()) for t in tasks), default=0.0)
