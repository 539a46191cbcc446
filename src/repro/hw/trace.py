"""Execution traces produced by the discrete-event simulator.

A :class:`Trace` records when every task ran on which processor.  It
provides the metrics the paper reports: makespan, per-processor busy time
and **bubble rate** (§3.4 — the fraction of a processor's active span it
spends stalled, 37% for naive in-order overlap on the critical path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import SchedulingError


class TraceEvent(NamedTuple):
    """One task execution interval.

    An immutable tuple, so the simulator builds one per dispatch at the
    cost of a tuple; it compares equal to a plain tuple of its fields.
    """

    task_id: str
    proc: str
    start_s: float
    end_s: float
    tag: str = ""
    #: Arithmetic MatMul work (MAC pairs ×2) performed by the task —
    #: the roofline numerator; 0 for sync/vector-only tasks.
    ops: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


_start = attrgetter("start_s")
_end = attrgetter("end_s")


def check_serial(lanes: Mapping[str, Sequence[TraceEvent]]) -> None:
    """Check no two consecutive events of a processor's lane, its events
    in start order, overlap (Eq. 4), processors in sorted order."""
    for proc in sorted(lanes):
        events = lanes[proc]
        for a, b in zip(events, events[1:]):
            if b.start_s < a.end_s - 1e-12:
                raise SchedulingError(
                    f"{proc}: tasks {a.task_id} and {b.task_id} overlap"
                )


@dataclass
class Trace:
    """A completed schedule.

    ``lanes`` holds each processor's events in start order when the
    trace's producer grouped them (:meth:`~repro.hw.sim.Simulator.run`
    does), and is ``None`` otherwise; :meth:`add` does not maintain it.
    """

    events: List[TraceEvent] = field(default_factory=list)
    lanes: Optional[Dict[str, Tuple[TraceEvent, ...]]] = field(
        default=None, compare=False, repr=False)

    def add(self, event: TraceEvent) -> None:
        if event.end_s < event.start_s:
            raise SchedulingError(
                f"event {event.task_id} ends before it starts"
            )
        self.events.append(event)

    @property
    def makespan_s(self) -> float:
        """End time of the last task (start at 0)."""
        if not self.events:
            return 0.0
        return max(map(_end, self.events))

    def processors(self) -> List[str]:
        return sorted({e.proc for e in self.events})

    def events_on(self, proc: str) -> List[TraceEvent]:
        return sorted((e for e in self.events if e.proc == proc),
                      key=lambda e: e.start_s)

    def busy_seconds(self, proc: Optional[str] = None) -> float:
        """Total execution time on one processor (or all)."""
        events = self.events if proc is None else self.events_on(proc)
        return sum(e.duration_s for e in events)

    def busy_by_processor(self) -> Dict[str, float]:
        return {p: self.busy_seconds(p) for p in self.processors()}

    def ops_by_processor(self) -> Dict[str, float]:
        """Total MatMul arithmetic work (MAC pairs ×2) per processor —
        the numerator of the roofline analysis in
        :mod:`repro.obs.profile`."""
        out: Dict[str, float] = {p: 0.0 for p in self.processors()}
        for e in self.events:
            out[e.proc] += e.ops
        return out

    def span_s(self, proc: str) -> float:
        """First-start to last-end interval on one processor."""
        events = self.events_on(proc)
        if not events:
            return 0.0
        return max(e.end_s for e in events) - min(e.start_s for e in events)

    def bubble_rate(self, proc: str) -> float:
        """Idle fraction of the processor's active span (§3.4's metric)."""
        span = self.span_s(proc)
        if span <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_seconds(proc) / span)

    def utilization(self, proc: str) -> float:
        """Busy fraction of the whole makespan."""
        makespan = self.makespan_s
        if makespan <= 0:
            return 0.0
        return self.busy_seconds(proc) / makespan

    def busy_by_tag(self) -> Dict[str, float]:
        """Total execution time grouped by task tag.

        Untagged events are grouped under ``"task"`` — the same default
        category :func:`~repro.obs.export.add_trace_spans` exports — so
        tag-keyed reports and trace files agree on the bucket names.
        """
        out: Dict[str, float] = {}
        for e in self.events:
            tag = e.tag or "task"
            out[tag] = out.get(tag, 0.0) + e.duration_s
        return out

    def order_on(self, proc: str) -> List[str]:
        """Task ids in execution order on one processor."""
        return [e.task_id for e in self.events_on(proc)]

    def validate_serial(self) -> None:
        """Check no two tasks overlap on the same processor (Eq. 4)."""
        by_proc: Dict[str, List[TraceEvent]] = {}
        for e in self.events:
            by_proc.setdefault(e.proc, []).append(e)
        for events in by_proc.values():
            events.sort(key=_start)
        check_serial(by_proc)
