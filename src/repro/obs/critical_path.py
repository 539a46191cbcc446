"""Critical-path attribution over simulated task timelines (§3.4's why).

The paper's headline wins come from overlapping subgraph stages across
heterogeneous processors, which means wall-clock latency is governed by
the *critical path* through the scheduled task DAG — the longest
dependency-respecting chain of events from origin to the last finisher.
The additive buckets the rest of the observability stack reports (busy
seconds, idle causes, queue/prefill/decode splits) say where time went;
the critical path says which tasks actually *gated* completion and how
much slack every off-path task had before it would start gating.

Extraction walks backward from the sink event picking, at each step,
the *gating parent* — the latest-finishing event the current one had to
wait for.  Three edge kinds are distinguished:

* ``dep`` — an explicit task-graph dependency (available when the
  :class:`~repro.hw.sim.Task` list that produced the trace is given);
* ``resource`` — the previous event on the same processor (the
  scheduler serialized them);
* ``inferred`` — without a task list, the latest event anywhere that
  finished by the current one's start (the schedule's observable
  gating structure).

The resulting chain telescopes: segment waits and durations sum to the
traced end-to-end latency *exactly* up to float re-association, which
:func:`validate_critical_path` enforces within 1e-9 s (CI runs it on
the golden artifact).  Off-path events get a per-segment slack from a
latest-finish backward pass over the schedule-fixed DAG.

Extraction has three parts: a structural index of the event set
(:class:`_EventIndex`), the backward gating walk and the latest-finish
pass.  A served request's timeline is a prefill schedule followed by
its decode steps, and the schedule repeats across requests (the prefill
memo, :mod:`repro.core.pipeline`).  So :func:`request_critical_path`
keeps each schedule's index, the gating chain that ends where decode
starts and the off-path events, as rows of static columns, in the
schedule's :class:`~repro.core.results.PrefillFacts`.  Per request it
only appends the decode steps, runs the latest-finish pass, whose
values depend on the decode durations, and re-anchors the rows' times.

Documents serialize under ``repro.critpath/v1`` with fully
deterministic bytes; :func:`validate_critpath_doc` checks a saved one
(``llmnpu validate``), running :func:`validate_critical_path` on every
path plus the per-path and document totals.
"""

from __future__ import annotations

import heapq
import json
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.hw.trace import Trace, TraceEvent
from repro.obs.schemas import CRITPATH_EDGES, CRITPATH_SCHEMA, require

#: Maximum tolerated conservation residual (segments vs end-to-end).
CRITPATH_TOL_S = 1e-9

#: Scheduling tolerance when matching "finished by my start" (mirrors
#: the simulator's serial-overlap tolerance).
_GATE_TOL_S = 1e-12

#: Gating-edge kinds, in tie-break priority order (low to high).
PATH_EDGES = CRITPATH_EDGES

_EDGE_RANK = {edge: i for i, edge in enumerate(PATH_EDGES)}


class CritPathError(ReproError):
    """Critical-path extraction or validation failure."""


class PathSegment(NamedTuple):
    """One on-path event plus the wait that preceded it.

    ``wait_s`` is the gap between the gating parent's finish (or the
    path origin) and this event's start; ``edge`` names how the event
    was gated (:data:`PATH_EDGES`).  An immutable tuple, so a path
    costs one tuple per segment; it compares equal to a plain tuple of
    its fields.
    """

    task_id: str
    proc: str
    tag: str
    start_s: float
    end_s: float
    wait_s: float
    edge: str

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        task_id, proc, tag, start, end, wait, edge = self
        return {
            "task_id": task_id,
            "proc": proc,
            "tag": tag,
            "start_s": start,
            "end_s": end,
            "duration_s": end - start,
            "wait_s": wait,
            "edge": edge,
        }


class SlackRecord(NamedTuple):
    """An off-path event and how late it could finish without gating."""

    task_id: str
    proc: str
    tag: str
    start_s: float
    end_s: float
    slack_s: float

    def to_dict(self) -> dict:
        task_id, proc, tag, start, end, slack = self
        return {
            "task_id": task_id,
            "proc": proc,
            "tag": tag,
            "start_s": start,
            "end_s": end,
            "slack_s": slack,
        }


@dataclass(frozen=True)
class CriticalPath:
    """The gating chain of one timeline, origin to last finisher.

    The roll-ups (``work_s``, ``wait_s``, :meth:`by_proc`,
    :meth:`by_tag`) are computed once per path.
    """

    source: str
    origin_s: float
    e2e_s: float
    segments: Tuple[PathSegment, ...]
    slack: Tuple[SlackRecord, ...]
    n_events: int

    @cached_property
    def work_s(self) -> float:
        return sum([s.end_s - s.start_s for s in self.segments])

    @cached_property
    def wait_s(self) -> float:
        return sum(s.wait_s for s in self.segments)

    @property
    def end_s(self) -> float:
        return self.segments[-1].end_s if self.segments else self.origin_s

    @cached_property
    def _shares(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        by_proc: Dict[str, float] = {}
        by_tag: Dict[str, float] = {}
        for _id, proc, tag, start, end, _wait, _edge in self.segments:
            duration = end - start
            by_proc[proc] = by_proc.get(proc, 0.0) + duration
            tag = tag or "task"
            by_tag[tag] = by_tag.get(tag, 0.0) + duration
        return ({k: by_proc[k] for k in sorted(by_proc)},
                {k: by_tag[k] for k in sorted(by_tag)})

    def by_proc(self) -> Dict[str, float]:
        """On-path seconds per processor (sorted keys)."""
        return dict(self._shares[0])

    def by_tag(self) -> Dict[str, float]:
        """On-path seconds per operator tag (sorted keys)."""
        return dict(self._shares[1])

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "origin_s": self.origin_s,
            "e2e_s": self.e2e_s,
            "n_events": self.n_events,
            "n_segments": len(self.segments),
            "work_s": self.work_s,
            "wait_s": self.wait_s,
            "by_proc": self.by_proc(),
            "by_tag": self.by_tag(),
            "segments": [s.to_dict() for s in self.segments],
            "slack": [s.to_dict() for s in self.slack],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)


# -- extraction: index, gating walk, latest-finish pass -----------------------

#: A forward gating chain: each on-path event with the edge by which it
#: gates the next one.
_Chain = List[Tuple[TraceEvent, str]]

#: The static columns of a chain event — task id, proc, ``tag or
#: "task"``, start, end — and the edge by which it gates the next one.
_ChainRow = Tuple[str, str, str, float, float, str]

#: The static columns of an off-path event: its index in the event
#: set, task id, proc, ``tag or "task"``, start and end.
_OffPathRow = Tuple[int, str, str, str, float, float]


def _sort_key(e: TraceEvent) -> Tuple[float, float, str]:
    return (e.start_s, e.end_s, e.task_id)


class _EventIndex:
    """The structure of one event set that neither walk nor pass changes.

    Events in schedule order ``(start, end, id)``; each event's resource
    predecessor (by task id) and the last event on each processor; the
    by-finish list inferred gating bisects; and for the latest-finish
    pass the successor lists (resource successors plus, with ``deps``,
    dependency successors), a deterministic Kahn order and durations.
    """

    def __init__(self, events, deps: Dict[str, Tuple[str, ...]]):
        self.events: List[TraceEvent] = sorted(events, key=_sort_key)
        events = self.events
        #: First event of each task id, for dependency edges.
        self.by_id: Dict[str, TraceEvent] = {}
        for e in events if deps else ():
            self.by_id.setdefault(e.task_id, e)
        self.resource_prev: Dict[str, Optional[TraceEvent]] = {}
        #: Index of the last event on each processor.
        self.last_on: Dict[str, int] = {}
        succs = [set() for _ in events]
        for i, e in enumerate(events):
            prev = self.last_on.get(e.proc)
            self.resource_prev[e.task_id] = (None if prev is None
                                             else events[prev])
            if prev is not None:
                succs[prev].add(i)
            self.last_on[e.proc] = i
        index = {e.task_id: i for i, e in enumerate(events)}
        for task_id, dep_ids in deps.items():
            child = index.get(task_id)
            if child is None:
                continue
            for dep_id in dep_ids:
                parent = index.get(dep_id)
                if parent is not None:
                    succs[parent].add(child)
        self.succs: List[Tuple[int, ...]] = [tuple(sorted(s))
                                             for s in succs]
        # For inferred gating: events by finish time, latest-eligible wins.
        self.by_end = sorted(events,
                             key=lambda e: (e.end_s, e.start_s, e.task_id))
        self.end_times = [e.end_s for e in self.by_end]
        self.makespan_s = self.end_times[-1] if events else 0.0
        self.durations = [e.duration_s for e in events]
        self.topo = self._kahn_order()

    def _kahn_order(self) -> List[int]:
        """A deterministic topological order of the successor DAG.

        Sync fences can have ~zero duration, so plain schedule-sort
        order is not a safe topological order.
        """
        events = self.events
        in_deg = [0] * len(events)
        for targets in self.succs:
            for j in targets:
                in_deg[j] += 1
        heap = [(e.start_s, e.end_s, e.task_id, i)
                for i, e in enumerate(events) if in_deg[i] == 0]
        heapq.heapify(heap)
        topo: List[int] = []
        while heap:
            i = heapq.heappop(heap)[3]
            topo.append(i)
            for j in self.succs[i]:
                in_deg[j] -= 1
                if in_deg[j] == 0:
                    e = events[j]
                    heapq.heappush(heap, (e.start_s, e.end_s, e.task_id, j))
        if len(topo) != len(events):
            raise CritPathError("slack pass: cycle in the schedule DAG")
        return topo


def _pick_parent(candidates: List[Tuple[TraceEvent, str]]
                 ) -> Optional[Tuple[TraceEvent, str]]:
    """The gating parent: latest finish, then edge priority, then id."""
    best = None
    best_key = None
    for event, edge in candidates:
        key = (event.end_s, _EDGE_RANK[edge], event.task_id)
        if best_key is None or key > best_key:
            best, best_key = (event, edge), key
    return best


def _gating_parent(ix: _EventIndex, start_s: float,
                   prev: Optional[TraceEvent], dep_ids, visited: set,
                   infer: bool) -> Optional[Tuple[TraceEvent, str]]:
    """The gating parent, and its edge, of an event that starts at
    ``start_s`` after ``prev`` on its processor, among unvisited events
    of ``ix`` that finished by then."""
    candidates: List[Tuple[TraceEvent, str]] = []
    gate = start_s + _GATE_TOL_S
    if prev is not None and prev.end_s <= gate \
            and prev.task_id not in visited:
        candidates.append((prev, "resource"))
    for dep_id in dep_ids:
        dep_event = ix.by_id.get(dep_id)
        if dep_event is not None and dep_event.end_s <= gate \
                and dep_id not in visited:
            candidates.append((dep_event, "dep"))
    if infer:
        pos = bisect_right(ix.end_times, gate) - 1
        while pos >= 0 and ix.by_end[pos].task_id in visited:
            pos -= 1
        if pos >= 0:
            candidates.append((ix.by_end[pos], "inferred"))
    return _pick_parent(candidates)


def _walk(ix: _EventIndex, current: TraceEvent, edge: str,
          deps: Dict[str, Tuple[str, ...]], infer: bool,
          source: str) -> _Chain:
    """The backward gating walk from ``current``, which gates whatever
    follows it over ``edge``, returned origin first."""
    chain: _Chain = []
    visited = set()
    while True:
        if current.task_id in visited:
            raise CritPathError(
                f"{source}: gating cycle through {current.task_id!r}")
        visited.add(current.task_id)
        chain.append((current, edge))
        parent = _gating_parent(ix, current.start_s,
                                ix.resource_prev[current.task_id],
                                deps.get(current.task_id, ()), visited,
                                infer)
        if parent is None:
            break
        current, edge = parent
    chain.reverse()
    return chain


def _latest_finish(ix: _EventIndex, makespan_s: float,
                   tail: Sequence[float] = (),
                   tail_from: Optional[int] = None) -> List[float]:
    """Latest finish of every event of ``ix`` that keeps ``makespan_s``.

    A backward pass in Kahn order over the successor DAG.  ``tail`` is
    the durations of a serial chain of events, absent from ``ix``, that
    follows event ``tail_from`` (a request's decode steps); its latest
    finishes fold into ``tail_from``'s.  ``min`` is exact, so any
    topological order gives the same bits.
    """
    latest = [makespan_s] * len(ix.events)
    if tail_from is not None:
        after = makespan_s
        for duration in reversed(tail):
            after = min(makespan_s, after - duration)
        latest[tail_from] = after
    durations = ix.durations
    for i in reversed(ix.topo):
        best = latest[i]
        for j in ix.succs[i]:
            finish = latest[j] - durations[j]
            if finish < best:
                best = finish
        latest[i] = best
    return latest


def _chain_rows(chain: _Chain) -> List[_ChainRow]:
    return [(e.task_id, e.proc, e.tag or "task", e.start_s, e.end_s, edge)
            for e, edge in chain]


def _off_path(ix: _EventIndex, chain: _Chain) -> List[_OffPathRow]:
    on_path = {event.task_id for event, _edge in chain}
    return [(i, e.task_id, e.proc, e.tag or "task", e.start_s, e.end_s)
            for i, e in enumerate(ix.events) if e.task_id not in on_path]


def _segments(rows: Sequence[_ChainRow], t0: float, prev_end: float,
              edge: str) -> List[PathSegment]:
    """Segments of a chain's ``rows`` re-anchored at ``t0``, the first
    gated by ``edge`` and following ``prev_end``.

    Waits are taken in the shifted frame — ``(t0 + a) - (t0 + b)`` is
    not ``a - b`` in floats, and the telescoping invariant must hold on
    the shifted numbers the path carries.
    """
    out: List[PathSegment] = []
    append = out.append
    for task_id, proc, tag, start, end, gates_next in rows:
        start = t0 + start
        end = t0 + end
        append(PathSegment(task_id, proc, tag, start, end, start - prev_end,
                           edge))
        prev_end, edge = end, gates_next
    return out


def _slack(rows: Sequence[_OffPathRow], latest: List[float],
           t0: float) -> Tuple[SlackRecord, ...]:
    """Slack records of the off-path ``rows``, re-anchored at ``t0``."""
    return tuple([SlackRecord(task_id, proc, tag, t0 + start, t0 + end,
                              latest[i] - end)
                  for i, task_id, proc, tag, start, end in rows])


#: One timeline's extraction: chain rows, latest finishes, off-path rows
#: and the timeline's event count.
_Parts = Tuple[List[_ChainRow], List[float], List[_OffPathRow], int]


def _trace_parts(trace: Trace, tasks, source: str) -> _Parts:
    """Extract a whole trace: index it, walk back from its sink."""
    deps: Dict[str, Tuple[str, ...]] = {}
    if tasks is not None:
        deps = {t.task_id: tuple(t.deps) for t in tasks}
    ix = _EventIndex(trace.events, deps)
    if not ix.events:
        raise CritPathError(f"{source}: cannot attribute an empty trace")
    sink = max(ix.events, key=lambda e: (e.end_s, e.start_s, e.task_id))
    chain = _walk(ix, sink, "origin", deps, tasks is None, source)
    latest = _latest_finish(ix, ix.makespan_s)
    return (_chain_rows(chain), latest, _off_path(ix, chain),
            len(ix.events))


def critical_path(trace: Trace, tasks=None,
                  source: str = "trace") -> CriticalPath:
    """Extract the critical path of a :class:`~repro.hw.trace.Trace`.

    ``tasks`` is the :class:`~repro.hw.sim.Task` sequence that produced
    the trace; with it, explicit dependency edges join the candidate
    set (``edge="dep"``), without it gating is inferred from the
    schedule alone.  The returned chain telescopes from time 0 to the
    trace makespan: Σ(wait + duration) over segments equals the
    makespan up to float re-association.
    """
    chain, latest, off_path, n_events = _trace_parts(trace, tasks, source)
    path = CriticalPath(
        source=source,
        origin_s=0.0,
        e2e_s=trace.makespan_s,
        segments=tuple(_segments(chain, 0.0, 0.0, "origin")),
        slack=_slack(off_path, latest, 0.0),
        n_events=n_events,
    )
    validate_critical_path(path)
    return path


# -- per prefill schedule: the part of a request's path that repeats ----------


class _ScheduleAnchor:
    """A prefill schedule's critical-path structure toward one decode
    backend, kept in the schedule's facts.

    The first decode step starts at the schedule's makespan; its gating
    parent, the *anchor*, is the schedule's sink or, if it finished as
    late, the last schedule event on the decode processor.  The walk
    back from the anchor never reaches a decode step, so the chain that
    ends there is the same for every request that runs the schedule.
    The anchor keeps that chain's and the off-path events' static
    columns (:data:`_ChainRow`, :data:`_OffPathRow`), so a request only
    re-anchors their times.
    """

    def __init__(self, facts, decode_backend: str):
        self.index = ix = facts.derive(
            _EventIndex, lambda f: _EventIndex(f.events, {}))
        source = f"prefill schedule anchor ({decode_backend} decode)"
        self.tail_from = ix.last_on.get(decode_backend)
        prev = None if self.tail_from is None else ix.events[self.tail_from]
        anchor, edge = _gating_parent(ix, ix.makespan_s, prev, (), set(),
                                      True)
        chain = _walk(ix, anchor, edge, {}, True, source)
        self.chain = _chain_rows(chain)
        self.off_path = _off_path(ix, chain)
        validate_critical_path(CriticalPath(
            source=source, origin_s=0.0, e2e_s=anchor.end_s,
            segments=tuple(_segments(self.chain, 0.0, 0.0, "origin")),
            slack=(), n_events=len(ix.events)))


def _schedule_parts(report, decode_backend: str) -> Optional[_Parts]:
    """The extraction of ``report.timeline(decode_backend)`` from its
    prefill schedule's cached structure, or None when that does not
    apply: no shared facts, a returned trace that no longer holds the
    facts' events, nothing decoded, or a decode step too short for the
    gating tolerance to order."""
    prefill = report.prefill
    facts, trace = prefill.facts, prefill.trace
    if (facts is None or trace is None or report.output_tokens <= 0
            or not facts.events or len(trace.events) != len(facts.events)
            or not all(map(operator.is_, trace.events, facts.events))):
        return None
    anchor = facts.derive((_ScheduleAnchor, decode_backend),
                          lambda f: _ScheduleAnchor(f, decode_backend))
    ix = anchor.index
    steps = report.decode_steps(decode_backend, ix.makespan_s)
    if any(s.end_s <= s.start_s + _GATE_TOL_S for s in steps):
        return None
    latest = _latest_finish(ix, steps[-1].end_s,
                            [s.duration_s for s in steps], anchor.tail_from)
    chain = anchor.chain + _chain_rows([(s, "resource") for s in steps])
    return chain, latest, anchor.off_path, len(ix.events) + len(steps)


# -- validation ----------------------------------------------------------------

_SEGMENT_CHECKED = ("task_id", "start_s", "end_s", "duration_s", "wait_s",
                    "edge")
_SLACK_CHECKED = ("task_id", "slack_s")


def _at(source, i: int, task_id) -> str:
    """Where a segment error is, formatted only once one is found."""
    return f"{source}: segments[{i}] ({task_id})"


def validate_critical_path(path, tol_s: float = CRITPATH_TOL_S) -> None:
    """Assert the telescoping invariant on a path (object or dict).

    Per segment: duration equals ``end - start`` and the segment starts
    exactly ``wait`` after its predecessor's end; globally, the waits
    and durations sum to the end-to-end latency, the last finish minus
    the origin equals it too, and every wait/slack is non-negative —
    all within ``tol_s``.  A :class:`CriticalPath` is read field by
    field, a dict (a saved path) key by key, with the same checks.
    """
    if isinstance(path, CriticalPath):
        source, origin, e2e = path.source, path.origin_s, path.e2e_s
        segments, slack = path.segments, path.slack
        fields, slack_fields = (operator.attrgetter(*_SEGMENT_CHECKED),
                                operator.attrgetter(*_SLACK_CHECKED))
    else:
        source, origin, e2e = path.get("source"), path["origin_s"], \
            path["e2e_s"]
        segments, slack = path["segments"], path["slack"]
        fields, slack_fields = (operator.itemgetter(*_SEGMENT_CHECKED),
                                operator.itemgetter(*_SLACK_CHECKED))
    if not segments:
        raise CritPathError(f"{source}: path has no segments")
    prev_end = origin
    total = 0.0
    for i, (task_id, start, end, duration, wait, edge) in enumerate(
            map(fields, segments)):
        dur = end - start
        if dur < -tol_s:
            raise CritPathError(f"{_at(source, i, task_id)}: negative "
                                f"duration {dur!r}")
        if abs(duration - dur) > tol_s:
            raise CritPathError(
                f"{_at(source, i, task_id)}: duration_s {duration!r} != "
                f"end - start {dur!r}")
        if wait < -tol_s:
            raise CritPathError(f"{_at(source, i, task_id)}: negative "
                                f"wait {wait!r}")
        gap = start - (prev_end + wait)
        if abs(gap) > tol_s:
            raise CritPathError(
                f"{_at(source, i, task_id)}: start {start!r} != previous "
                f"end {prev_end!r} + wait {wait!r}")
        if edge not in PATH_EDGES:
            raise CritPathError(f"{_at(source, i, task_id)}: unknown edge "
                                f"{edge!r}")
        total += wait + duration
        prev_end = end
    if abs(total - e2e) > tol_s:
        raise CritPathError(
            f"{source}: segment waits + durations sum to "
            f"{total!r}, end-to-end is {e2e!r} "
            f"(residual {total - e2e:.3e} s)")
    if abs((prev_end - origin) - e2e) > tol_s:
        raise CritPathError(
            f"{source}: last finish {prev_end!r} - origin "
            f"{origin!r} != e2e {e2e!r}")
    for i, (task_id, slack_s) in enumerate(map(slack_fields, slack)):
        if slack_s < -tol_s:
            raise CritPathError(
                f"{source}: slack[{i}] ({task_id}): "
                f"negative slack {slack_s!r}")


_CRITPATH_DOC = {"schema": str, "source": object, "n_paths": int,
                 "paths": list, "totals": dict}
_PATH = {"source": str, "origin_s": float, "e2e_s": float,
         "n_events": object, "n_segments": int, "work_s": float,
         "wait_s": float, "by_proc": dict, "by_tag": dict,
         "segments": list, "slack": list}
_SEGMENT = {"task_id": str, "proc": str, "tag": str,
            "start_s": float, "end_s": float, "duration_s": float,
            "wait_s": float, "edge": object}
_SLACK = {"task_id": str, "proc": str, "tag": str,
          "start_s": object, "end_s": object, "slack_s": float}
_TOTALS = {"work_s": float, "wait_s": float, "by_proc": dict,
           "by_tag": dict}


def validate_critpath_doc(doc: dict,
                          tol_s: float = CRITPATH_TOL_S) -> None:
    """Validate a saved ``repro.critpath/v1`` document (a dict).

    Record keys, string ids and finite numbers, and one path per
    ``source`` (``llmnpu diff`` aligns requests by it), then
    :func:`validate_critical_path` on every path; per path, segment
    durations sum to ``work_s`` and to each of ``by_proc`` /
    ``by_tag``, waits sum to ``wait_s``; the ``totals`` block is the
    per-path sum.  Raises :class:`CritPathError`.
    """
    require(doc, _CRITPATH_DOC, "critpath", CritPathError)
    if doc["schema"] != CRITPATH_SCHEMA:
        raise CritPathError(f"expected schema {CRITPATH_SCHEMA!r}, got "
                            f"{doc['schema']!r}")
    paths = doc["paths"]
    if not paths or doc["n_paths"] != len(paths):
        raise CritPathError("critpath: 'paths' must be a non-empty list "
                            "of n_paths paths")
    work = wait = 0.0
    by_proc: Dict[str, float] = {}
    by_tag: Dict[str, float] = {}
    sources = set()
    for i, p in enumerate(paths):
        where = f"paths[{i}]"
        require(p, _PATH, where, CritPathError)
        if p["source"] in sources:
            raise CritPathError(f"{where}: duplicate source "
                                f"{p['source']!r}")
        sources.add(p["source"])
        if p["n_segments"] != len(p["segments"]):
            raise CritPathError(f"{where}: n_segments != len(segments)")
        for j, seg in enumerate(p["segments"]):
            require(seg, _SEGMENT, f"{where}.segments[{j}]",
                    CritPathError)
        for j, rec in enumerate(p["slack"]):
            require(rec, _SLACK, f"{where}.slack[{j}]", CritPathError)
        validate_critical_path(p, tol_s)
        path_work = sum(seg["duration_s"] for seg in p["segments"])
        path_wait = sum(seg["wait_s"] for seg in p["segments"])
        for key, total in (("work_s", path_work), ("wait_s", path_wait)):
            if abs(p[key] - total) > tol_s:
                raise CritPathError(f"{where}: {key} {p[key]!r} != "
                                    f"segment sum {total!r}")
        for block, acc in (("by_proc", by_proc), ("by_tag", by_tag)):
            shares = p[block]
            require(shares, dict.fromkeys(shares, float),
                    f"{where}.{block}", CritPathError)
            if abs(sum(shares.values()) - path_work) > tol_s:
                raise CritPathError(f"{where}: {block} does not sum to the "
                                    f"on-path work {path_work!r}")
            for key, value in shares.items():
                acc[key] = acc.get(key, 0.0) + value
        work += path_work
        wait += path_wait
    totals = doc["totals"]
    require(totals, _TOTALS, "totals", CritPathError)
    tol = tol_s * len(paths)
    for key, total in (("work_s", work), ("wait_s", wait)):
        if abs(totals[key] - total) > tol:
            raise CritPathError(f"totals.{key} != sum of per-path {key}")
    for block, acc in (("by_proc", by_proc), ("by_tag", by_tag)):
        declared = totals[block]
        if sorted(declared) != sorted(acc):
            raise CritPathError(
                f"totals.{block} keys do not match the paths")
        require(declared, dict.fromkeys(acc, float), f"totals.{block}",
                CritPathError)
        for key in acc:
            if abs(declared[key] - acc[key]) > tol:
                raise CritPathError(f"totals.{block}[{key!r}] drifts from "
                                    f"the per-path sum")



def request_critical_path(record, decode_backend: str = "cpu",
                          tasks=None) -> CriticalPath:
    """The admission-to-completion critical path of one served request.

    Extends the hardware chain (prefill tasks + decode steps from the
    request's :meth:`~repro.core.results.InferenceReport.timeline`)
    with the service-level gating segments: time queued before the
    scheduler started it, time held by retries/backoff before the
    successful attempt, and the serial graph-preparation tail (naive
    engines only).  The chain telescopes from arrival to finish: the
    conservation invariant now covers the request's full turnaround.

    The prefill part comes from the schedule's cached structure when it
    applies (see :class:`_ScheduleAnchor`); otherwise, and always with
    ``tasks``, the whole timeline is extracted.  Both give the same
    path.
    """
    if record.status != "completed" or record.report is None:
        raise CritPathError(
            f"request {record.request_id}: no completed report to "
            f"attribute (status {record.status!r})")
    report = record.report
    source = f"request {record.request_id}"
    parts = (_schedule_parts(report, decode_backend) if tasks is None
             else None)
    if parts is None:
        parts = _trace_parts(report.timeline(decode_backend), tasks, source)
    chain, latest, off_path, n_events = parts
    t0 = record.finish_s - report.e2e_latency_s
    segments: List[PathSegment] = []
    prev_end = record.arrival_s
    queued = record.start_s - record.arrival_s
    if queued > 0.0:
        segments.append(PathSegment(
            task_id="service.queued", proc="service", tag="queued",
            start_s=record.arrival_s, end_s=record.start_s,
            wait_s=0.0, edge="origin",
        ))
        prev_end = record.start_s
    held = t0 - prev_end
    if held > 0.0:
        segments.append(PathSegment(
            task_id="service.held", proc="service", tag="held",
            start_s=prev_end, end_s=t0, wait_s=0.0,
            edge="service" if segments else "origin",
        ))
        prev_end = t0
    segments.extend(_segments(chain, t0, prev_end,
                              "service" if segments else "origin"))
    prev_end = segments[-1].end_s
    prep = record.finish_s - prev_end
    if prep > 0.0:
        segments.append(PathSegment(
            task_id="service.prepare", proc="service", tag="prepare",
            start_s=prev_end, end_s=record.finish_s, wait_s=0.0,
            edge="service",
        ))
    path = CriticalPath(
        source=source,
        origin_s=record.arrival_s,
        e2e_s=record.finish_s - record.arrival_s,
        segments=tuple(segments),
        slack=_slack(off_path, latest, t0),
        n_events=n_events,
    )
    validate_critical_path(path)
    return path


def critpath_doc(paths: Sequence[CriticalPath],
                 source: str = "critpath") -> dict:
    """Roll paths into one ``repro.critpath/v1`` document."""
    if not paths:
        raise CritPathError("critpath_doc needs at least one path")
    by_proc: Dict[str, float] = {}
    by_tag: Dict[str, float] = {}
    work = 0.0
    wait = 0.0
    for p in paths:
        work += p.work_s
        wait += p.wait_s
        for proc, s in p.by_proc().items():
            by_proc[proc] = by_proc.get(proc, 0.0) + s
        for tag, s in p.by_tag().items():
            by_tag[tag] = by_tag.get(tag, 0.0) + s
    return {
        "schema": CRITPATH_SCHEMA,
        "source": source,
        "n_paths": len(paths),
        "paths": [p.to_dict() for p in paths],
        "totals": {
            "work_s": work,
            "wait_s": wait,
            "by_proc": {k: by_proc[k] for k in sorted(by_proc)},
            "by_tag": {k: by_tag[k] for k in sorted(by_tag)},
        },
    }


def narrative_lines(path: CriticalPath, top: int = 5) -> List[str]:
    """A human-readable walk of one critical path (``llmnpu explain``
    and ``llmnpu critpath <request>``)."""
    lines = [
        f"critical path — {path.source}: {len(path.segments)} of "
        f"{path.n_events} events gate the outcome",
        f"  end-to-end {path.e2e_s * 1e3:.3f} ms = on-path work "
        f"{path.work_s * 1e3:.3f} ms + waits {path.wait_s * 1e3:.3f} ms",
    ]
    for proc, s in path.by_proc().items():
        share = s / path.e2e_s * 100 if path.e2e_s > 0 else 0.0
        lines.append(f"  on-path {proc}: {s * 1e3:.3f} ms "
                     f"({share:.1f}% of e2e)")
    ranked = sorted(path.segments,
                    key=lambda s: (-s.duration_s, s.start_s, s.task_id))
    lines.append(f"  top {min(top, len(ranked))} gating segments:")
    for seg in ranked[:top]:
        share = (seg.duration_s / path.e2e_s * 100
                 if path.e2e_s > 0 else 0.0)
        lines.append(
            f"    {seg.task_id} [{seg.proc}/{seg.tag}] "
            f"{seg.duration_s * 1e3:.3f} ms ({share:.1f}%), "
            f"gated by {seg.edge}, waited {seg.wait_s * 1e3:.3f} ms")
    if path.slack:
        loose = sorted(path.slack,
                       key=lambda r: (-r.slack_s, r.start_s, r.task_id))
        best = loose[0]
        lines.append(
            f"  {len(path.slack)} off-path events; most slack: "
            f"{best.task_id} [{best.proc}] could finish "
            f"{best.slack_s * 1e3:.3f} ms later without gating")
    return lines
