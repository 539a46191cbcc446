"""Rolling-window SLO monitors with burn-rate alerting over sim time.

Everything in ``repro.obs`` so far is post-hoc: metrics and traces are
read *after* :meth:`~repro.core.service.LlmService.run` returns.  This
module watches the service's live completion stream instead — the
observation hook (:meth:`LlmService.add_observer`) delivers every
finished :class:`~repro.core.service.ServedRequest` as it is recorded,
and :meth:`~repro.hw.sim.FaultInjector.add_listener` mirrors every
consumed fault draw — and evaluates declarative SLOs against rolling
sim-clock windows.

The moving parts:

* :class:`SloSpec` — one objective over the event stream.  Three
  objective kinds share a single good/bad-event framing:

  - ``latency``: a *completed* request is bad when its turnaround
    exceeds ``threshold`` seconds;
  - ``availability``: any request is bad when its terminal status is not
    ``completed`` (rejected / timeout / cancelled / failed);
  - ``energy``: a *completed* request is bad when it consumed more than
    ``threshold`` joules.

  ``target`` is the objective good-fraction (e.g. ``0.9`` = 90% of
  events good); the **error budget** is ``1 - target``.

* :class:`BurnRateRule` — a multi-window burn-rate alert in the SRE
  style.  The burn rate over a window is
  ``bad_fraction / (1 - target)`` (1.0 = consuming budget exactly at
  the sustainable rate).  A rule's condition holds when **both** its
  long and short windows burn faster than ``max_burn_rate`` — the long
  window gives significance, the short window confirms the problem is
  still happening (so alerts resolve promptly once the storm passes).

* The alert **state machine** per ``(slo, rule)`` pair:
  ``inactive → pending → firing → resolved``.  The condition must hold
  for ``for_s`` seconds of sim time before a pending alert escalates to
  firing; a firing alert resolves at the first evaluation where the
  condition no longer holds.  Each excursion becomes one
  :class:`Incident`, and a firing incident **cross-links** the bad
  request tracks (:func:`~repro.core.service.request_track` names match
  the Tracer's spans) and the fault draws inside its long window.

Evaluation is event-driven and purely deterministic: the monitor
evaluates at each distinct event timestamp of the (sim-time-sorted)
stream, so the resulting ``repro.alerts/v1`` timeline is a pure function
of the served workload and the fault spec.  Observation never perturbs
the service — the monitor only reads records the service already
produced (the no-op guarantee of ``tests/obs/test_noop_regression.py``).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch

#: Schema identifiers stamped into incident timelines and fleet reports.
from repro.obs.schemas import ALERTS_SCHEMA, FLEET_SCHEMA, require

#: SLO objective kinds.
OBJECTIVES = ("latency", "availability", "energy")

#: Alert lifecycle states.
ALERT_STATES = ("pending", "firing", "resolved")

#: What a firing incident cross-links to, with each link's keys.
LINK_KINDS = {"request": ("request_id", "track"), "fault": ("draw", "fault")}

#: Default consecutive-queued-step streak the starvation detector flags.
STARVATION_MIN_STEPS = 8


class MonitorError(ReproError):
    """SLO monitor misconfiguration or misuse."""


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective (see module docstring).

    ``tier=None`` matches every tier.  ``threshold`` is seconds for
    ``latency``, joules for ``energy``, and unused for
    ``availability``.
    """

    name: str
    objective: str
    target: float
    tier: Optional[str] = None
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise MonitorError("SloSpec needs a non-empty name")
        if self.objective not in OBJECTIVES:
            raise MonitorError(
                f"SLO {self.name!r}: unknown objective "
                f"{self.objective!r}; use one of {OBJECTIVES}"
            )
        if not 0.0 < self.target < 1.0:
            raise MonitorError(
                f"SLO {self.name!r}: target must be in (0, 1), got "
                f"{self.target!r}"
            )
        if self.objective in ("latency", "energy") and self.threshold <= 0:
            raise MonitorError(
                f"SLO {self.name!r}: {self.objective} objective needs a "
                f"positive threshold"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def matches(self, event: "RequestEvent") -> bool:
        """Whether this SLO counts ``event`` at all."""
        if self.tier is not None and event.tier != self.tier:
            return False
        if self.objective in ("latency", "energy"):
            # latency/energy objectives are measured over answers that
            # were actually produced; shed requests are the
            # availability objective's business
            return event.status == "completed"
        return True

    def is_bad(self, event: "RequestEvent") -> bool:
        """Whether a matched ``event`` violates the objective."""
        if self.objective == "latency":
            return event.turnaround_s > self.threshold
        if self.objective == "energy":
            return event.energy_j > self.threshold
        return event.status != "completed"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "objective": self.objective,
            "target": self.target,
            "tier": self.tier,
            "threshold": self.threshold,
        }

    def compliance(self, n_events: int, n_bad: int) -> dict:
        """The scoreboard row for ``n_bad`` bad of ``n_events`` matched
        events: :meth:`to_dict` plus the counts, good fraction, budget
        burned and whether the target is met.  No events count as
        fully compliant."""
        bad_fraction = 0.0 if n_events == 0 else n_bad / n_events
        good_fraction = 1.0 - bad_fraction
        record = self.to_dict()
        record.update({
            "n_events": n_events,
            "n_bad": n_bad,
            "good_fraction": good_fraction,
            "budget_burned": bad_fraction / self.error_budget,
            "met": good_fraction >= self.target,
        })
        return record


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alerting rule."""

    name: str
    long_window_s: float
    short_window_s: float
    max_burn_rate: float
    for_s: float = 0.0
    severity: str = "page"

    def __post_init__(self) -> None:
        if not self.name:
            raise MonitorError("BurnRateRule needs a non-empty name")
        if self.long_window_s <= 0 or self.short_window_s <= 0:
            raise MonitorError(
                f"rule {self.name!r}: windows must be positive"
            )
        if self.short_window_s > self.long_window_s:
            raise MonitorError(
                f"rule {self.name!r}: short window "
                f"({self.short_window_s!r}s) exceeds long window "
                f"({self.long_window_s!r}s)"
            )
        if self.max_burn_rate <= 0:
            raise MonitorError(
                f"rule {self.name!r}: max_burn_rate must be positive"
            )
        if self.for_s < 0:
            raise MonitorError(f"rule {self.name!r}: for_s must be >= 0")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "long_window_s": self.long_window_s,
            "short_window_s": self.short_window_s,
            "max_burn_rate": self.max_burn_rate,
            "for_s": self.for_s,
            "severity": self.severity,
        }


#: Default rules, scaled to the simulator's second-scale workloads: a
#: fast burn that pages within a couple of seconds of a storm, and a
#: slow burn that tickets sustained budget bleed.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule(name="fast-burn", long_window_s=10.0, short_window_s=2.0,
                 max_burn_rate=4.0, for_s=0.0, severity="page"),
    BurnRateRule(name="slow-burn", long_window_s=30.0, short_window_s=6.0,
                 max_burn_rate=1.5, for_s=2.0, severity="ticket"),
)


@dataclass(frozen=True)
class RequestEvent:
    """One finished request as the monitor sees it."""

    t_s: float
    request_id: int
    tier: str
    status: str
    turnaround_s: float
    queueing_s: float
    energy_j: float


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault draw as the monitor sees it."""

    t_s: float
    draw: int
    kind: str


@dataclass
class Incident:
    """One excursion of a ``(slo, rule)`` pair through the state machine."""

    slo: str
    rule: str
    severity: str
    pending_s: float
    firing_s: Optional[float] = None
    resolved_s: Optional[float] = None
    peak_burn_rate: float = 0.0
    links: List[dict] = field(default_factory=list)

    @property
    def state(self) -> str:
        if self.resolved_s is not None:
            return "resolved"
        if self.firing_s is not None:
            return "firing"
        return "pending"

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "rule": self.rule,
            "severity": self.severity,
            "state": self.state,
            "pending_s": self.pending_s,
            "firing_s": self.firing_s,
            "resolved_s": self.resolved_s,
            "peak_burn_rate": self.peak_burn_rate,
            "links": list(self.links),
        }


class _Window:
    """Rolling count of (total, bad) events inside ``(t - width, t]``."""

    __slots__ = ("width_s", "_events", "n_total", "n_bad")

    def __init__(self, width_s: float):
        self.width_s = width_s
        self._events: deque = deque()  # (t_s, bad)
        self.n_total = 0
        self.n_bad = 0

    def add(self, t_s: float, bad: bool) -> None:
        self._events.append((t_s, bad))
        self.n_total += 1
        self.n_bad += bad

    def advance(self, now_s: float) -> None:
        cutoff = now_s - self.width_s
        while self._events and self._events[0][0] <= cutoff:
            _, bad = self._events.popleft()
            self.n_total -= 1
            self.n_bad -= bad

    def bad_fraction(self) -> float:
        if self.n_total == 0:
            return 0.0
        return self.n_bad / self.n_total


class _RuleState:
    """State machine of one ``(slo, rule)`` pair during a replay."""

    def __init__(self, slo: SloSpec, rule: BurnRateRule):
        self.slo = slo
        self.rule = rule
        self.long = _Window(rule.long_window_s)
        self.short = _Window(rule.short_window_s)
        self.current: Optional[Incident] = None
        self.incidents: List[Incident] = []

    def ingest(self, event: RequestEvent) -> None:
        bad = self.slo.is_bad(event)
        self.long.add(event.t_s, bad)
        self.short.add(event.t_s, bad)

    def evaluate(self, now_s: float, monitor: "SloMonitor") -> None:
        self.long.advance(now_s)
        self.short.advance(now_s)
        budget = self.slo.error_budget
        burn_long = self.long.bad_fraction() / budget
        burn_short = self.short.bad_fraction() / budget
        condition = (burn_long > self.rule.max_burn_rate
                     and burn_short > self.rule.max_burn_rate)
        incident = self.current
        if incident is not None:
            incident.peak_burn_rate = max(incident.peak_burn_rate,
                                          min(burn_long, burn_short))
        if condition:
            if incident is None:
                incident = Incident(
                    slo=self.slo.name, rule=self.rule.name,
                    severity=self.rule.severity, pending_s=now_s,
                    peak_burn_rate=min(burn_long, burn_short),
                )
                self.current = incident
                self.incidents.append(incident)
            if (incident.firing_s is None
                    and now_s - incident.pending_s >= self.rule.for_s):
                incident.firing_s = now_s
                incident.links = monitor._links_in_window(
                    self.slo, now_s, self.rule.long_window_s,
                )
        elif incident is not None:
            incident.resolved_s = now_s
            self.current = None


class SloMonitor:
    """Streaming SLO evaluation over a service's completion stream.

    Attach with :meth:`attach` (registers the service observer hook and
    the fault-draw listener), or feed events directly through
    :meth:`observe_request` / :meth:`observe_fault`.  The monitor also
    maintains per-``(metric, tier)`` :class:`QuantileSketch`es —
    the mergeable telemetry a fleet aggregates (see
    :mod:`repro.eval.fleet`).

    Events may arrive out of sim-time order (``LlmService.run`` replays
    engines one at a time); the evaluation replays them sorted by
    ``(t_s, request_id)``, so the timeline is independent of arrival
    order.
    """

    def __init__(self, slos: Sequence[SloSpec],
                 rules: Sequence[BurnRateRule] = DEFAULT_RULES,
                 sketch_alpha: float = DEFAULT_ALPHA):
        slos = tuple(slos)
        if not slos:
            raise MonitorError("SloMonitor needs at least one SloSpec")
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise MonitorError(f"duplicate SLO names in {names}")
        rules = tuple(rules)
        if not rules:
            raise MonitorError("SloMonitor needs at least one rule")
        rule_names = [r.name for r in rules]
        if len(set(rule_names)) != len(rule_names):
            raise MonitorError(f"duplicate rule names in {rule_names}")
        self.slos = slos
        self.rules = rules
        self.sketch_alpha = sketch_alpha
        self._requests: List[RequestEvent] = []
        self._faults: List[FaultEvent] = []
        self.sketches: Dict[str, QuantileSketch] = {}
        # -- scheduler step telemetry (repro.steps/v1 stream) --
        self._n_steps = 0
        self._decision_counts: Dict[str, int] = {}
        self._queued_streaks: Dict[int, int] = {}
        self._peak_streaks: Dict[int, int] = {}

    # -- ingestion ------------------------------------------------------------

    def _sketch(self, key: str) -> QuantileSketch:
        """The ``metric/tier`` sketch, created on first use."""
        sketch = self.sketches.get(key)
        if sketch is None:
            sketch = QuantileSketch(alpha=self.sketch_alpha)
            self.sketches[key] = sketch
        return sketch

    def observe_request(self, record) -> None:
        """Streaming consumer of finished ``ServedRequest`` records
        (the callable :meth:`LlmService.add_observer` expects)."""
        energy = (record.report.energy_j
                  if record.report is not None else 0.0)
        event = RequestEvent(
            t_s=record.finish_s,
            request_id=record.request_id,
            tier=record.tier,
            status=record.status,
            turnaround_s=record.turnaround_s,
            queueing_s=record.queueing_s,
            energy_j=energy,
        )
        self._requests.append(event)
        if record.status == "completed":
            self._sketch(f"turnaround_s/{record.tier}").observe(
                event.turnaround_s)
            self._sketch(f"queueing_s/{record.tier}").observe(
                event.queueing_s)
            self._sketch(f"energy_j/{record.tier}").observe(event.energy_j)

    def observe_fault(self, draw: int, kind: Optional[str],
                      now_s: float) -> None:
        """Fault-draw listener (:meth:`FaultInjector.add_listener`)."""
        if kind is not None:
            self._faults.append(FaultEvent(t_s=now_s, draw=draw,
                                           kind=kind))

    def observe_step(self, record) -> None:
        """Streaming consumer of scheduler step records.

        Feeds the batch-occupancy and queue-depth sketches (merged
        fleet-wide exactly like the request sketches) and advances the
        starvation detector: a request accrues one streak step for each
        consecutive step it spends in the waiting queue without being
        scheduled.  Accepts :class:`~repro.core.scheduler.StepRecord`
        objects or their ``repro.steps/v1`` dicts.
        """
        get = (record.__getitem__ if isinstance(record, dict)
               else record.__getattribute__)
        tokens = get("prefill_tokens") + get("decode_tokens")
        queued = tuple(get("queued_ids"))
        inflight = get("n_inflight")
        util = get("budget_utilization")
        self._n_steps += 1
        self._sketch("batch_tokens/step").observe(float(tokens))
        self._sketch("queue_depth/step").observe(float(len(queued)))
        self._sketch("inflight/step").observe(float(inflight))
        if util is not None:
            self._sketch("budget_utilization/step").observe(util)
        streaks = self._queued_streaks
        peaks = self._peak_streaks
        for rid in queued:
            streak = streaks.get(rid, 0) + 1
            streaks[rid] = streak
            if streak > peaks.get(rid, 0):
                peaks[rid] = streak
        for rid in tuple(streaks):
            if rid not in queued:
                del streaks[rid]

    def observe_steps(self, records) -> int:
        """Feed each step record to :meth:`observe_step`, in order;
        returns how many there were."""
        n = 0
        for record in records:
            self.observe_step(record)
            n += 1
        return n

    def observe_decision(self, decision) -> None:
        """Streaming consumer of scheduler decisions (counts the mix)."""
        action = (decision["action"] if isinstance(decision, dict)
                  else decision.action)
        self._decision_counts[action] = \
            self._decision_counts.get(action, 0) + 1

    # Step-observer protocol (duck-typed by
    # ``LlmService.add_step_observer`` and ``StepLogger``): the monitor
    # listens on both channels under its ``observe_*`` names.
    def on_step(self, record) -> None:
        self.observe_step(record)

    def on_decision(self, decision) -> None:
        self.observe_decision(decision)

    def attach(self, service) -> "SloMonitor":
        """Register this monitor on a service's streaming hooks."""
        service.add_observer(self.observe_request)
        if hasattr(service, "add_step_observer"):
            service.add_step_observer(self)
        if service.fault_injector is not None:
            service.fault_injector.add_listener(self.observe_fault)
        return self

    @property
    def n_events(self) -> int:
        return len(self._requests)

    @property
    def n_faults(self) -> int:
        return len(self._faults)

    @property
    def n_steps(self) -> int:
        return self._n_steps

    def decision_counts(self) -> Dict[str, int]:
        """The observed decision mix, sorted by action name."""
        return dict(sorted(self._decision_counts.items()))

    def starved_requests(self, min_steps: int = STARVATION_MIN_STEPS
                         ) -> List[Tuple[int, int]]:
        """Requests whose peak consecutive-queued streak reached
        ``min_steps`` scheduler steps: ``[(request_id, peak_streak)]``.
        """
        if min_steps < 1:
            raise MonitorError(
                f"min_steps must be >= 1, got {min_steps}")
        return sorted((rid, streak)
                      for rid, streak in self._peak_streaks.items()
                      if streak >= min_steps)

    def scheduler_summary(self,
                          starvation_min_steps: int = STARVATION_MIN_STEPS
                          ) -> dict:
        """Derived scheduler-health view over the observed step stream.

        Empty-stream safe (all-zero summary), so reports can include it
        unconditionally — legacy (non-batched) runs emit no steps.
        """
        occupancy = self.sketches.get("batch_tokens/step")
        depth = self.sketches.get("queue_depth/step")
        util = self.sketches.get("budget_utilization/step")
        summary = {
            "n_steps": self._n_steps,
            "decision_counts": self.decision_counts(),
            "starved": [
                {"request_id": rid, "streak_steps": streak}
                for rid, streak in
                self.starved_requests(starvation_min_steps)
            ],
            "starvation_min_steps": starvation_min_steps,
        }
        if occupancy is not None and occupancy.count:
            summary["batch_tokens"] = {
                "mean": occupancy.mean, "max": occupancy.max,
                "p50": occupancy.percentile(50.0),
                "p95": occupancy.percentile(95.0),
            }
        if depth is not None and depth.count:
            summary["queue_depth"] = {
                "mean": depth.mean, "max": depth.max,
                "p95": depth.percentile(95.0),
            }
        if util is not None and util.count:
            summary["budget_utilization"] = {
                "mean": util.mean, "p95": util.percentile(95.0),
            }
        return summary

    # -- evaluation -----------------------------------------------------------

    def _sorted_requests(self) -> List[RequestEvent]:
        return sorted(self._requests,
                      key=lambda e: (e.t_s, e.request_id))

    def _links_in_window(self, slo: SloSpec, now_s: float,
                         window_s: float) -> List[dict]:
        """Cross-links for a firing alert: the bad request tracks and
        the fault draws inside ``(now_s - window_s, now_s]``."""
        from repro.core.service import request_track
        lo = now_s - window_s
        links: List[dict] = []
        for event in self._sorted_requests():
            if not lo < event.t_s <= now_s:
                continue
            if slo.matches(event) and slo.is_bad(event):
                links.append({
                    "kind": "request",
                    "request_id": event.request_id,
                    "track": request_track(event.request_id),
                    "t_s": event.t_s,
                    "status": event.status,
                })
        for fault in sorted(self._faults,
                            key=lambda f: (f.t_s, f.draw)):
            if lo < fault.t_s <= now_s:
                links.append({
                    "kind": "fault",
                    "draw": fault.draw,
                    "fault": fault.kind,
                    "t_s": fault.t_s,
                })
        return links

    def _evaluate(self) -> List[Incident]:
        """Replay the sorted event stream through every state machine."""
        states = [_RuleState(slo, rule)
                  for slo in self.slos for rule in self.rules]
        events = self._sorted_requests()
        i = 0
        while i < len(events):
            now_s = events[i].t_s
            # ingest every event at exactly this timestamp, then
            # evaluate once — co-timed completions are one observation
            while i < len(events) and events[i].t_s == now_s:
                event = events[i]
                for state in states:
                    if state.slo.matches(event):
                        state.ingest(event)
                i += 1
            for state in states:
                state.evaluate(now_s, self)
        incidents = [inc for state in states for inc in state.incidents]
        incidents.sort(key=lambda inc: (inc.pending_s, inc.slo, inc.rule))
        return incidents

    def compliance(self) -> List[dict]:
        """Whole-stream compliance per SLO (the scoreboard section)."""
        out = []
        for slo in self.slos:
            matched = [e for e in self._requests if slo.matches(e)]
            out.append(slo.compliance(
                len(matched), sum(1 for e in matched if slo.is_bad(e))))
        return out

    def timeline(self, source: str = "service") -> dict:
        """The ``repro.alerts/v1`` incident timeline document."""
        incidents = self._evaluate()
        times = [e.t_s for e in self._requests] + \
            [f.t_s for f in self._faults]
        return {
            "schema": ALERTS_SCHEMA,
            "source": source,
            "start_s": min(times) if times else 0.0,
            "end_s": max(times) if times else 0.0,
            "n_request_events": len(self._requests),
            "n_fault_events": len(self._faults),
            "slos": self.compliance(),
            "rules": [rule.to_dict() for rule in self.rules],
            "incidents": [inc.to_dict() for inc in incidents],
        }

    def timeline_json(self, source: str = "service",
                      indent: Optional[int] = None) -> str:
        return json.dumps(self.timeline(source=source), indent=indent,
                          sort_keys=True)


_TIMELINE = {"schema": str, "source": str, "start_s": object,
             "end_s": object, "n_request_events": object,
             "n_fault_events": object, "slos": list, "rules": list,
             "incidents": list}
_SLO = {"name": str, "objective": object, "target": float,
        "n_events": object, "n_bad": object, "good_fraction": object,
        "met": object}
_RULE = {"name": str, "long_window_s": float, "short_window_s": float,
         "max_burn_rate": object, "for_s": object, "severity": object}
_INCIDENT = {"slo": str, "rule": str, "severity": object, "state": str,
             "pending_s": float, "firing_s": (float, None),
             "resolved_s": (float, None), "peak_burn_rate": object,
             "links": list}


def validate_timeline_doc(doc: dict) -> None:
    """Validate a ``repro.alerts/v1`` incident timeline (a dict).

    Record keys; SLO targets in (0, 1); short rule windows within long
    ones; incidents that reference declared SLOs and rules, use a known
    state, order ``pending <= firing <= resolved`` with finite times,
    and carry well-formed links (at least one when firing); and
    non-overlapping incidents per ``(source, slo, rule)``.  Raises
    :class:`MonitorError`.
    """
    require(doc, _TIMELINE, "alerts", MonitorError)
    if doc["schema"] != ALERTS_SCHEMA:
        raise MonitorError(
            f"expected schema {ALERTS_SCHEMA!r}, got {doc['schema']!r}"
        )
    slo_names = set()
    for i, slo in enumerate(doc["slos"]):
        require(slo, _SLO, f"slos[{i}]", MonitorError)
        if not 0 < slo["target"] < 1:
            raise MonitorError(f"slos[{i}]: target must be in (0, 1)")
        slo_names.add(slo["name"])
    rule_names = set()
    for i, rule in enumerate(doc["rules"]):
        require(rule, _RULE, f"rules[{i}]", MonitorError)
        if rule["short_window_s"] > rule["long_window_s"]:
            raise MonitorError(
                f"rules[{i}]: short window exceeds long window")
        rule_names.add(rule["name"])
    by_pair: Dict[Tuple, List[dict]] = {}
    for i, inc in enumerate(doc["incidents"]):
        where = f"incidents[{i}]"
        require(inc, _INCIDENT, where, MonitorError)
        if inc["slo"] not in slo_names:
            raise MonitorError(f"{where}: unknown SLO {inc['slo']!r}")
        if inc["rule"] not in rule_names:
            raise MonitorError(f"{where}: unknown rule {inc['rule']!r}")
        if inc["state"] not in ALERT_STATES:
            raise MonitorError(f"{where}: unknown state {inc['state']!r}")
        pending, firing, resolved = (inc["pending_s"], inc["firing_s"],
                                     inc["resolved_s"])
        if firing is not None and firing < pending:
            raise MonitorError(f"{where}: firing_s < pending_s")
        if resolved is not None:
            anchor = pending if firing is None else firing
            if resolved < anchor:
                raise MonitorError(
                    f"{where}: resolved_s precedes "
                    f"{'pending' if firing is None else 'firing'}_s")
        if firing is not None and not inc["links"]:
            raise MonitorError(
                f"{where}: firing incident with no cross-links"
            )
        for j, link in enumerate(inc["links"]):
            kind = link.get("kind") if isinstance(link, dict) else None
            if not isinstance(kind, str) or kind not in LINK_KINDS:
                raise MonitorError(
                    f"{where}: unknown link kind {kind!r}"
                )
            require(link, dict.fromkeys(LINK_KINDS[kind], object),
                    f"{where}.links[{j}]", MonitorError)
        source = inc.get("source", doc["source"])
        if not isinstance(source, str):
            raise MonitorError(f"{where}: source must be a string")
        key = (source, inc["slo"], inc["rule"])
        by_pair.setdefault(key, []).append(inc)
    for key, incidents in sorted(by_pair.items()):
        incidents = sorted(incidents, key=lambda inc: inc["pending_s"])
        for a, b in zip(incidents, incidents[1:]):
            end = a["resolved_s"]
            if end is None:
                raise MonitorError(
                    f"{key}: unresolved incident at {a['pending_s']!r} "
                    f"followed by another at {b['pending_s']!r}"
                )
            if b["pending_s"] < end:
                raise MonitorError(
                    f"{key}: incidents overlap "
                    f"({b['pending_s']!r} < {end!r})"
                )


_FLEET = {"schema": str, "n_devices": int, "devices": list,
          "percentiles": dict, "sketches": dict, "alerts": dict}
_FLEET_DEVICE = {"name": object, "device": object, "seed": object,
                 "n_requests": object, "n_completed": object,
                 "n_incidents": object, "n_firing": object,
                 "ttft_p50_s": (float, None), "ttft_p95_s": (float, None),
                 "mean_itl_s": (float, None), "goodput_rps": float}
_PERCENTILE_STATS = ("p50", "p90", "p95", "p99", "max")


def validate_fleet_doc(doc: dict) -> None:
    """Validate a ``repro.fleet/v1`` report (a dict): device records,
    merged percentile blocks (null stats exactly when empty, each with a
    sketch payload), and the embedded alerts timeline
    (:func:`validate_timeline_doc`).  Raises :class:`MonitorError`."""
    require(doc, _FLEET, "fleet", MonitorError)
    if doc["schema"] != FLEET_SCHEMA:
        raise MonitorError(
            f"expected schema {FLEET_SCHEMA!r}, got {doc['schema']!r}"
        )
    if len(doc["devices"]) != doc["n_devices"]:
        raise MonitorError("fleet: n_devices != len(devices)")
    for i, device in enumerate(doc["devices"]):
        require(device, _FLEET_DEVICE, f"devices[{i}]", MonitorError)
        if device["goodput_rps"] < 0:
            raise MonitorError(f"devices[{i}]: negative goodput_rps")
    for key in sorted(doc["percentiles"]):
        where = f"percentiles[{key!r}]"
        snap = doc["percentiles"][key]
        require(snap, {"count": int}, where, MonitorError)
        if snap["count"] < 0:
            raise MonitorError(f"{where}: negative count")
        stat = None if snap["count"] == 0 else float
        require(snap, dict.fromkeys(_PERCENTILE_STATS, stat), where,
                MonitorError)
        if key not in doc["sketches"]:
            raise MonitorError(f"{where}: no matching sketch payload")
    validate_timeline_doc(doc["alerts"])
