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
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import (
    DependencyError,
    PermanentEngineError,
    SchedulingError,
    TransientEngineError,
)
from repro.hw.trace import Trace, TraceEvent, check_serial


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


_INF = float("inf")


class TaskColumns(NamedTuple):
    """The fields of a :class:`Task`; with a tuple per field, the
    columns of a task list (see :meth:`SchedulingPolicy.key_column`)."""

    task_id: str
    proc: str
    duration_s: float
    deps: Tuple[str, ...] = ()
    tag: str = ""
    chunk: int = -1
    subgraph: int = -1
    ops: float = 0.0


class Task(TaskColumns):
    """A schedulable unit (one subgraph execution, sync, etc.).

    An immutable tuple, like :class:`~repro.hw.trace.TraceEvent`:
    lowering builds one per subgraph, shadow and sync of every chunk.
    Every construction, ``_replace`` and ``_make`` included, rejects a
    negative or non-finite duration.
    """

    __slots__ = ()

    def __new__(cls, task_id: str, proc: str, duration_s: float,
                deps: Tuple[str, ...] = (), tag: str = "", chunk: int = -1,
                subgraph: int = -1, ops: float = 0.0) -> "Task":
        if not 0.0 <= duration_s < _INF:
            raise SchedulingError(
                f"task {task_id}: "
                + ("negative" if duration_s < 0 else "non-finite")
                + " duration"
            )
        return tuple.__new__(cls, (task_id, proc, duration_s, deps, tag,
                                   chunk, subgraph, ops))

    @classmethod
    def _make(cls, iterable) -> "Task":
        return cls(*iterable)


class SchedulingPolicy:
    """Chooses which ready task a newly-idle processor runs next.

    A policy whose order is fixed before the run defines :meth:`key`: a
    static priority computed once per task from the task and its submit
    index.  The derived :meth:`select` runs the smallest key among the
    ready tasks, and :class:`Simulator` keeps each processor's ready set
    as a heap of keys instead of calling it.  A policy whose choice
    depends on the live schedule overrides :meth:`select`, which the
    simulator then calls at every decision point, unless the class that
    defines it declares one of the rules below.

    ``select`` may return ``None`` to deliberately keep the processor idle
    until the next completion event — how head-of-line-blocking command
    queues behave (see :class:`~repro.core.scheduler.HeadOfLinePolicy`).
    ``in_order = True``, declared by the class that defines ``select``,
    promises that ``select`` runs the processor's smallest-key unfinished
    task once it is ready and idles otherwise; the simulator then keeps a
    heap of every task on the processor and never calls ``select``.

    ``eq5``, declared the same way, promises that ``select`` is the
    out-of-order heuristic's max-C rule (§3.4, Eq. 5) over the ready
    tasks, with ``C(g)`` as
    :func:`~repro.core.scheduler.newly_ready_npu_time` computes it and
    negated on the ``"npu"`` processor:

    * ``"absolute"`` ranks by ``(C(g), -duration, -submit index)``;
    * ``"normalized"`` ranks by
      ``(C(g) / max(duration, 1e-9), -submit index)``.

    The simulator then evaluates the rule on its own arrays and never
    calls ``select``.
    """

    name = "base"
    in_order = False
    eq5: Optional[str] = None

    def key(self, task: Task, index: int):
        """Static priority of ``task`` (submit index ``index``); smallest
        runs first.  Equal keys run in the order the tasks became ready."""
        raise NotImplementedError

    def key_column(self, tasks: Sequence[Task],
                   columns: TaskColumns) -> Sequence:
        """Every task's :meth:`key`, in task order: ``key(tasks[i], i)``
        at ``i``.

        ``columns`` holds the tasks' fields by column
        (``columns.chunk[i]`` is ``tasks[i].chunk``), so a policy whose
        keys are columns can build them without a call per task.  The
        simulator calls the override of the class that defines ``key``
        or of a subclass of it, so a subclass that overrides only
        ``key`` keeps its own keys.
        """
        key = self.key
        return [key(task, i) for i, task in enumerate(tasks)]

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

    def key_column(self, tasks: Sequence[Task],
                   columns: TaskColumns) -> Sequence[int]:
        return range(len(tasks))


@dataclass
class SimContext:
    """Read-only state handed to policies at each decision point."""

    tasks: Mapping[str, Task]
    submit_index: Mapping[str, int]
    dependents: Mapping[str, Tuple[str, ...]]
    completed: Set[str]
    now_s: float

    def remaining_deps(self, task_id: str) -> int:
        """Unfinished entries of the task's ``deps``; a repeated
        dependency counts once per occurrence."""
        task = self.tasks[task_id]
        return sum(1 for d in task.deps if d not in self.completed)


def _key_column(policy: SchedulingPolicy, tasks: Sequence[Task],
                columns: TaskColumns) -> Sequence:
    """``policy``'s keys of ``tasks``, from the :meth:`key_column
    <SchedulingPolicy.key_column>` of the class that defines ``key``,
    or of a subclass; an override above that class would not know the
    keys, so the base class's call per task makes them."""
    mro = type(policy).__mro__
    owner = next(c for c in mro if "key" in vars(c))
    column_owner = next(c for c in mro if "key_column" in vars(c))
    if issubclass(column_owner, owner):
        return policy.key_column(tasks, columns)
    return SchedulingPolicy.key_column(policy, tasks, columns)


def _key_order(policy: SchedulingPolicy) -> Optional[str]:
    """How :meth:`Simulator.run` makes ``policy``'s choices.

    ``"ready"`` when ``select`` is the base class's smallest-key scan,
    ``"head"`` when the class defining ``select`` declares ``in_order``,
    that class's ``eq5`` rule (``"absolute"`` or ``"normalized"``) when
    it declares one, and ``None`` when ``select`` must be called — so a
    subclass that overrides ``select`` is always honored.
    """
    owner = next(c for c in type(policy).__mro__ if "select" in vars(c))
    if owner is SchedulingPolicy:
        return "ready"
    declared = vars(owner)
    if declared.get("in_order", False):
        return "head"
    rule = declared.get("eq5")
    if rule not in (None, "absolute", "normalized"):
        raise SchedulingError(
            f"policy {policy.name!r}: unknown eq5 rule {rule!r}"
        )
    return rule


class Simulator:
    """List scheduler over a fixed set of serial processors.

    One event loop over integer task indices: each task's processor,
    duration, dependents and unfinished-dependency count live in lists,
    and a processor's ready set takes one of three forms, chosen by
    :func:`_key_order`:

    * for a **static-key** policy, a heap of ``(key, ready order,
      index)``, with the keys taken once per run as a column (see
      :meth:`SchedulingPolicy.key_column`).  An ``in_order`` policy's
      heap holds every task on the processor from the start, and the
      top is dispatched only once its dependencies are done;
    * for a policy that declares an ``eq5`` rule, a list of indices that
      the simulator ranks by the declared Eq. 5 key at each decision
      point, reading the unfinished-dependency counts directly;
    * for any other policy, the same list handed to ``select`` as
      :class:`Task` values, with a :class:`SimContext`.

    The unfinished-dependency count counts a repeated dependency once
    per occurrence, as :meth:`SimContext.remaining_deps` does, so Eq. 5
    sees the same counts as the policy's own ``select``.

    A lowered prefill DAG arrives with its tasks' dependents as
    indices, which lowering caches per task block; any other task list
    has its ids resolved once per run.  Each processor's events are appended to its
    lane as they are dispatched, and the serial check (Eq. 4) runs over
    the lanes, which the trace keeps.

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
        """Tasks by id, after checking the graph in task order."""
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

    def _index(self, tasks: List[Task], ids: Sequence[str],
               procs: Sequence[str], deps: Sequence[Tuple[str, ...]],
               dependents: Optional[Sequence[Sequence[int]]]
               ) -> Tuple[List[int], Sequence[Sequence[int]]]:
        """Each task's processor index (a repeated processor name maps
        to its first position) and its dependents: the indices of the
        tasks that list it in their ``deps``, in task order, once per
        occurrence.  ``dependents`` when given, else resolved from the
        ids.

        Invalid tasks raise :meth:`_validate`'s first error.
        """
        proc_index: Dict[str, int] = {}
        for k, name in enumerate(self.processor_names):
            proc_index.setdefault(name, k)
        proc_of = list(map(proc_index.get, procs))
        if dependents is not None:
            if len(dependents) != len(ids):
                raise SchedulingError(
                    f"dependents cover {len(dependents)} tasks, "
                    f"the task list has {len(ids)}"
                )
            if None in proc_of:
                self._validate(tasks)  # raises: an unknown processor
            return proc_of, dependents
        index = dict(zip(ids, range(len(ids))))
        resolved: List[List[int]] = [[] for _ in ids]
        try:
            if len(index) != len(ids) or None in proc_of:
                raise KeyError
            for i, task_deps in enumerate(deps):
                for d in task_deps:
                    resolved[index[d]].append(i)
        except KeyError:
            self._validate(tasks)
            raise
        return proc_of, resolved

    def run(self, tasks: List[Task],
            policy: Optional[SchedulingPolicy] = None,
            dependents: Optional[Sequence[Sequence[int]]] = None) -> Trace:
        """Execute the task graph; returns the trace.

        ``dependents``, each task's dependents as indices into
        ``tasks`` (see :meth:`_index`; lowering caches them per task
        block), spares resolving the ids; they must describe ``tasks``
        as given.  The trace's ``lanes`` hold each processor's events in
        start order.

        Raises :class:`DependencyError` for unknown/cyclic dependencies or
        tasks assigned to unknown processors.
        """
        policy = policy if policy is not None else FifoPolicy()
        n_tasks = len(tasks)
        columns = TaskColumns._make(zip(*tasks) if n_tasks else ((),) * 8)
        ids, procs, durations, deps, tags, _, _, ops = columns
        proc_of, dependents = self._index(tasks, ids, procs, deps,
                                          dependents)
        remaining = list(map(len, deps))
        order = _key_order(policy)
        names = self.processor_names
        initial = [i for i in range(n_tasks) if not remaining[i]]

        heaps = ready = select = context = completed = None
        head = order == "head"
        if order == "ready" or head:
            keys = _key_column(policy, tasks, columns)
            heaps = [[] for _ in names]
            # The push count breaks key ties in ready order, exactly as
            # select's min() over the ready list does; an in-order queue
            # holds every task up front.
            for i in (range(n_tasks) if head else initial):
                heaps[proc_of[i]].append((keys[i], i, i))
            for heap in heaps:
                heapq.heapify(heap)
            pushes = n_tasks
        else:
            ready = [[] for _ in names]
            for i in initial:
                ready[proc_of[i]].append(i)
            if order is None:
                select = policy.select
                completed = set()
                context = SimContext(
                    tasks={t.task_id: t for t in tasks},
                    submit_index={t.task_id: i for i, t in enumerate(tasks)},
                    dependents={
                        t.task_id: tuple(tasks[d].task_id
                                         for d in dict.fromkeys(deps))
                        for t, deps in zip(tasks, dependents)},
                    completed=completed,
                    now_s=0.0,
                )
            else:
                # Eq. 5 sums, in dependents order, the durations of NPU
                # dependents whose only unfinished dependency is the
                # candidate; a repeat keeps its count above one.
                npu = names.index("npu") if "npu" in names else -1
                per_second = order == "normalized"
                if per_second:
                    divisors = [max(d, 1e-9) for d in durations]

        trace = Trace()
        append = trace.events.append
        lanes: List[List[TraceEvent]] = [[] for _ in names]
        on_lane = [lane.append for lane in lanes]
        new = tuple.__new__
        heappush, heappop = heapq.heappush, heapq.heappop
        # (finish time, dispatch count, index) heap of running tasks.
        running: List[Tuple[float, int, int]] = []
        busy = [False] * len(names)
        n_started = 0
        now = 0.0
        while True:
            for p, proc in enumerate(names):
                if busy[p]:
                    continue
                if heaps is not None:
                    heap = heaps[p]
                    if not heap or (head and remaining[heap[0][2]]):
                        continue  # empty, or head-of-line blocked
                    i = heappop(heap)[2]
                else:
                    candidates = ready[p]
                    if not candidates:
                        continue
                    if select is not None:
                        context.now_s = now
                        choice = select(proc, [tasks[j] for j in candidates],
                                        context)
                        if choice is None:
                            continue  # the policy keeps the processor idle
                        try:
                            pos = [tasks[j] for j in candidates].index(choice)
                        except ValueError:
                            raise SchedulingError(
                                f"policy {policy.name!r} selected a "
                                f"non-ready task"
                            ) from None
                        i = candidates.pop(pos)
                    elif len(candidates) == 1:
                        i = candidates.pop()
                    else:
                        sign = -1.0 if p == npu else 1.0
                        i = -1
                        for g in candidates:
                            total = 0.0
                            for d in dependents[g]:
                                if remaining[d] == 1 and proc_of[d] == npu:
                                    total += durations[d]
                            c = sign * total
                            if per_second:
                                c = c / divisors[g]
                                if i < 0 or c > best_c or (
                                        c == best_c and g < i):
                                    i, best_c = g, c
                            elif i < 0 or c > best_c or c == best_c and (
                                    durations[g] < durations[i]
                                    or durations[g] == durations[i]
                                    and g < i):
                                i, best_c = g, c
                        candidates.remove(i)
                busy[p] = True
                end = now + durations[i]
                heappush(running, (end, n_started, i))
                n_started += 1
                event = new(TraceEvent,
                            (ids[i], proc, now, end, tags[i], ops[i]))
                append(event)
                on_lane[p](event)
            if not running:
                break
            now, _, i = heappop(running)
            # Co-terminating tasks are released before the first one, so
            # dispatch sees every processor freed at this instant.
            finished = [i]
            while running and running[0][0] == now:
                finished.insert(-1, heappop(running)[2])
            for i in finished:
                busy[proc_of[i]] = False
                if completed is not None:
                    completed.add(ids[i])
                for d in dependents[i]:
                    left = remaining[d] - 1
                    remaining[d] = left
                    if not left:
                        if ready is not None:
                            ready[proc_of[d]].append(d)
                        elif not head:
                            heappush(heaps[proc_of[d]],
                                     (keys[d], pushes, d))
                            pushes += 1

        if n_started != n_tasks:
            ran = set(e.task_id for e in trace.events)
            stuck = [t.task_id for t in tasks if t.task_id not in ran]
            raise DependencyError(
                f"deadlock: {len(stuck)} tasks never became ready "
                f"(cyclic dependencies?): {stuck[:5]}"
            )
        # A processor's events were dispatched, so appended, in start
        # order.
        trace.lanes = {names[p]: tuple(lane)
                       for p, lane in enumerate(lanes) if lane}
        check_serial(trace.lanes)
        return trace


class ReferenceSimulator(Simulator):
    """The original per-event simulator loop, kept as the executable spec.

    Byte-for-byte the pre-vectorization implementation: per-dispatch
    ready-list copies, O(ready) policy scans, per-dependency recount in
    ``remaining_deps``, and a ``select`` call at every decision.  The
    speedup benchmark (``benchmarks/bench_sim_speed.py``) measures
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
