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

    A policy whose order is fixed before the run defines :meth:`key`: a
    static priority computed once per task from the task and its submit
    index.  The derived :meth:`select` runs the smallest key among the
    ready tasks, and :class:`Simulator` keeps each processor's ready set
    as a heap of keys instead of calling it.  A policy whose choice
    depends on the live schedule (the out-of-order heuristic) overrides
    :meth:`select`, which the simulator then calls at every decision
    point.

    ``select`` may return ``None`` to deliberately keep the processor idle
    until the next completion event — how head-of-line-blocking command
    queues behave (see :class:`~repro.core.scheduler.HeadOfLinePolicy`).
    ``in_order = True``, declared by the class that defines ``select``,
    promises that ``select`` runs the processor's smallest-key unfinished
    task once it is ready and idles otherwise; the simulator then keeps a
    heap of every task on the processor and never calls ``select``.
    """

    name = "base"
    in_order = False

    def key(self, task: Task, index: int):
        """Static priority of ``task`` (submit index ``index``); smallest
        runs first.  Equal keys run in the order the tasks became ready."""
        raise NotImplementedError

    def select(self, proc: str, ready: List[Task],
               context: "SimContext") -> Optional[Task]:
        submit_index = context.submit_index
        return min(ready, key=lambda t: self.key(t, submit_index[t.task_id]))


class FifoPolicy(SchedulingPolicy):
    """Submission-order (in-order) scheduling — the naive overlap baseline
    of Fig. 13(a)."""

    name = "fifo"

    def key(self, task: Task, index: int) -> int:
        return index


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


def _key_order(policy: SchedulingPolicy) -> Optional[str]:
    """How :meth:`Simulator.run` makes ``policy``'s choices.

    ``"ready"`` when ``select`` is the base class's smallest-key scan,
    ``"head"`` when the class defining ``select`` declares ``in_order``,
    and ``None`` when ``select`` is overridden and must be called — so a
    subclass that overrides ``select`` is always honored.
    """
    owner = next(c for c in type(policy).__mro__ if "select" in vars(c))
    if owner is SchedulingPolicy:
        return "ready"
    if vars(owner).get("in_order", False):
        return "head"
    return None


class Simulator:
    """List scheduler over a fixed set of serial processors.

    One event loop, with the ready set kept in one of two forms:

    * for a **static-key** policy, each processor's ready set is a heap
      of ``(key, ready order, task)``, with keys computed once per task
      (see :meth:`SchedulingPolicy.key`).  An ``in_order`` policy's heap
      holds every task on the processor from the start, and the top is
      dispatched only once its dependencies are done;
    * for a policy that overrides ``select``, each processor's ready set
      is a list handed to ``select``, with an incrementally-maintained
      unfinished-dependency count in :attr:`SimContext.missing`
      (``remaining_deps`` drops from O(deps) to O(1), which is the inner
      loop of the out-of-order heuristic's Eq. 5 contribution scan).

    :class:`ReferenceSimulator` keeps the original per-event loop as the
    executable specification; ``benchmarks/bench_sim_speed.py`` measures
    this loop against it and ``tests/hw/test_sim_fast_path.py`` pins
    trace equality on every policy.
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
        order = _key_order(policy)
        procs = self.processor_names
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

        heappush, heappop = heapq.heappush, heapq.heappop
        completed: Set[str] = set()
        if order is None:
            ready: Dict[str, List[Task]] = {p: [] for p in procs}
            context = SimContext(
                tasks=by_id,
                submit_index=submit_index,
                dependents={k: tuple(v) for k, v in dependents.items()},
                completed=completed,
                now_s=0.0,
                missing=missing,
                dup_deps=frozenset(dup_deps),
            )

            def on_ready(task: Task) -> None:
                ready[task.proc].append(task)
        else:
            heaps: Dict[str, List[Tuple[object, int, Task]]] = {
                p: [] for p in procs
            }
            keys = {t.task_id: policy.key(t, i) for i, t in enumerate(tasks)}
            # Ready order breaks key ties exactly as select's min() over
            # the ready list does.
            pushes = itertools.count()

            def push(task: Task) -> None:
                heappush(heaps[task.proc],
                         (keys[task.task_id], next(pushes), task))

            on_ready = (lambda task: None) if order == "head" else push
        for t in tasks:
            if order == "head":
                push(t)  # the command queue holds every task up front
            elif missing[t.task_id] == 0:
                on_ready(t)

        trace = Trace()
        events = trace.events
        # (finish_time, seq, task) heap of running tasks; seq breaks ties.
        running: List[Tuple[float, int, Task]] = []
        seq = itertools.count()
        proc_busy: Dict[str, bool] = {p: False for p in procs}
        now = 0.0

        def dispatch() -> None:
            if order is None:
                context.now_s = now
            for proc in procs:
                if proc_busy[proc]:
                    continue
                if order is None:
                    if not ready[proc]:
                        continue
                    task = policy.select(proc, list(ready[proc]), context)
                    if task is None:
                        continue  # policy keeps the processor idle for now
                    if task not in ready[proc]:
                        raise SchedulingError(
                            f"policy {policy.name!r} selected a non-ready "
                            f"task"
                        )
                    ready[proc].remove(task)
                else:
                    heap = heaps[proc]
                    if not heap or (order == "head"
                                    and missing[heap[0][2].task_id]):
                        continue  # empty, or head-of-line blocked
                    task = heappop(heap)[2]
                proc_busy[proc] = True
                end = now + task.duration_s
                heappush(running, (end, next(seq), task))
                events.append(TraceEvent(task.task_id, proc, now, end,
                                         task.tag, ops=task.ops))

        def release(task_id: str) -> None:
            completed.add(task_id)
            for dep_id in dependents[task_id]:
                missing[dep_id] -= 1
                if missing[dep_id] == 0:
                    on_ready(by_id[dep_id])

        dispatch()
        while running:
            now, _, finished = heappop(running)
            proc_busy[finished.proc] = False
            # Drain co-terminating tasks so dispatch sees all frees at
            # once; their dependents are released before ``finished``'s.
            while running and running[0][0] == now:
                other = heappop(running)[2]
                proc_busy[other.proc] = False
                release(other.task_id)
            release(finished.task_id)
            dispatch()

        if len(completed) != len(tasks):
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
    equivalence tests require identical traces — so the key heaps and
    incremental bookkeeping can never silently drift from the specified
    schedule.  It is also the ground truth
    :func:`repro.obs.whatif.resimulate` checks the what-if estimator's
    ``Simulator``-based predictions against.
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
