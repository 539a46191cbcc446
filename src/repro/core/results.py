"""Result records returned by the engines and the service layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, sub
from types import MappingProxyType
from typing import (Any, Callable, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.hw.energy import EnergyBreakdown
from repro.hw.trace import Trace, TraceEvent

_start = attrgetter("start_s")
_end = attrgetter("end_s")


@dataclass(frozen=True)
class PrefillFacts:
    """Facts derived from one prefill schedule, each computed on first use.

    Built over the schedule's frozen events, so the prefill memo entry
    of a DAG and every report handed out for it share one instance and
    derive each fact once; a schedule that is never asked pays nothing.
    ``lanes`` are each processor's events in start order, as
    :meth:`~repro.hw.sim.Simulator.run` grouped them while dispatching
    (:attr:`Trace.lanes <repro.hw.trace.Trace>`), so no fact regroups
    the events.  Layers above ``core`` keep their own facts here with
    :meth:`derive`.
    """

    events: Tuple[TraceEvent, ...]
    lanes: Mapping[str, Sequence[TraceEvent]] = field(compare=False,
                                                       repr=False)
    _derived: Dict[Hashable, Any] = field(default_factory=dict, init=False,
                                          compare=False, repr=False)

    def derive(self, key: Hashable,
               build: Callable[["PrefillFacts"], Any]) -> Any:
        """The fact stored under ``key``, ``build(self)`` on first use.

        ``build`` must be a pure function of the events; the value is
        shared by every holder of these facts, so it must not be mutated.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    @cached_property
    def busy_by_processor(self) -> Mapping[str, float]:
        """Read-only :meth:`Trace.busy_by_processor` of the schedule."""
        # Each event's ``end_s - start_s`` (its duration_s), in lane order.
        return MappingProxyType({
            proc: sum(map(sub, map(_end, lane), map(_start, lane)))
            for proc, lane in sorted(self.lanes.items())})

    def bubble_rate(self, proc: str) -> float:
        """:meth:`Trace.bubble_rate` of the schedule."""
        events = self.lanes.get(proc)
        if not events:
            return 0.0
        # A lane is in start order, so its first event starts first.
        span = max(map(_end, events)) - events[0].start_s
        if span <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_by_processor[proc] / span)

    @cached_property
    def chunk_finish(self) -> Tuple[Tuple[int, float], ...]:
        """``(chunk, finish time)`` of every chunk, sorted by ``(finish,
        chunk)``: a chunk finishes with its last task, and every task id
        starts with ``c<chunk>.`` (:mod:`repro.core.dependency`)."""
        finish: Dict[int, float] = {}
        for event in self.events:
            chunk = int(event.task_id.split(".", 1)[0][1:])
            finish[chunk] = max(finish.get(chunk, 0.0), event.end_s)
        return tuple(sorted(finish.items(), key=lambda cf: (cf[1], cf[0])))


@dataclass(frozen=True)
class PrefillReport:
    """Outcome of one simulated prefill."""

    prompt_tokens: int
    padded_tokens: int
    n_chunks: int
    latency_s: float
    trace: Optional[Trace] = None
    npu_busy_s: float = 0.0
    float_busy_s: float = 0.0
    npu_bubble_rate: float = 0.0
    graph_prepare_s: float = 0.0
    #: Set with ``trace`` (:func:`~repro.core.pipeline.run_prefill`).
    facts: Optional[PrefillFacts] = field(default=None, compare=False,
                                          repr=False)

    @property
    def tokens_per_s(self) -> float:
        if self.latency_s <= 0:
            return float("inf")
        return self.prompt_tokens / self.latency_s


@dataclass(frozen=True)
class InferenceReport:
    """End-to-end (prefill + decode) outcome."""

    engine: str
    model: str
    device: str
    prompt_tokens: int
    output_tokens: int
    prefill: PrefillReport
    decode_latency_s: float
    energy: Optional[EnergyBreakdown] = None
    memory_bytes: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def prefill_latency_s(self) -> float:
        return self.prefill.latency_s

    @property
    def prefill_tokens_per_s(self) -> float:
        return self.prefill.tokens_per_s

    @property
    def e2e_latency_s(self) -> float:
        return self.prefill.latency_s + self.decode_latency_s

    @property
    def ttft_s(self) -> float:
        """Time to first token — the prefill latency, the quantity the
        paper's whole design targets."""
        return self.prefill.latency_s

    @property
    def tpot_s(self) -> float:
        """Time per output token during decoding (0 if nothing decoded)."""
        if self.output_tokens <= 0:
            return 0.0
        return self.decode_latency_s / self.output_tokens

    @property
    def energy_j(self) -> float:
        return self.energy.total_j if self.energy is not None else 0.0

    def timeline(self, decode_backend: str = "cpu"):
        """Unified prefill+decode trace for visualization.

        Returns a :class:`~repro.hw.trace.Trace` containing the prefill
        schedule followed by one event per decoded token on the decode
        backend; :func:`~repro.obs.export.add_trace_spans` puts it on a
        Perfetto timeline (``llmnpu infer --trace-out``).
        """
        timeline = Trace()
        start = 0.0
        if self.prefill.trace is not None:
            for event in self.prefill.trace.events:
                timeline.add(event)
            start = self.prefill.trace.makespan_s
        for event in self.decode_steps(decode_backend, start):
            timeline.add(event)
        return timeline

    def decode_steps(self, decode_backend: str,
                     start_s: float) -> List[TraceEvent]:
        """The :meth:`timeline` decode events: one per output token on
        ``decode_backend``, each ``tpot_s`` long, back to back from
        ``start_s``."""
        if self.output_tokens <= 0:
            return []
        per_token = self.decode_latency_s / self.output_tokens
        return [TraceEvent(task_id=f"decode.t{i}", proc=decode_backend,
                           start_s=start_s + i * per_token,
                           end_s=start_s + (i + 1) * per_token,
                           tag="decode")
                for i in range(self.output_tokens)]

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.engine} | {self.model} on {self.device} | "
            f"prompt={self.prompt_tokens} out={self.output_tokens} | "
            f"prefill={self.prefill_latency_s:.3f}s "
            f"({self.prefill_tokens_per_s:.0f} tok/s) "
            f"decode={self.decode_latency_s:.3f}s "
            f"e2e={self.e2e_latency_s:.3f}s energy={self.energy_j:.1f}J"
        )


# -- service-level metrics (§3.1's LLM-as-a-System-Service) -------------------


@dataclass(frozen=True)
class TierStats:
    """Per-tier service metrics over one workload.

    Latency percentiles cover *completed* requests only; rejected,
    timed-out, cancelled and failed requests are counted but contribute
    no latency samples (they never produced an answer).
    """

    tier: str
    n_requests: int
    n_completed: int
    n_rejected: int
    n_timeout: int
    n_cancelled: int
    n_failed: int
    n_retries: int
    p50_turnaround_s: float
    p95_turnaround_s: float
    mean_queueing_s: float
    throughput_rps: float
    #: TTFT/ITL over completed requests (0.0 when no samples — e.g.
    #: ITL for workloads that decode nothing).
    p50_ttft_s: float = 0.0
    p95_ttft_s: float = 0.0
    mean_itl_s: float = 0.0


@dataclass(frozen=True)
class ServiceMetrics:
    """Aggregate + per-tier view of one served workload."""

    span_s: float
    n_requests: int
    n_completed: int
    n_rejected: int
    n_timeout: int
    n_cancelled: int
    n_failed: int
    n_retries: int
    npu_busy_s: float
    npu_utilization: float
    busy_fraction: float
    total_energy_j: float
    tiers: Dict[str, TierStats]

    def tier(self, name: str) -> TierStats:
        from repro.errors import EngineError
        try:
            return self.tiers[name]
        except KeyError:
            raise EngineError(
                f"no requests in tier {name!r}; "
                f"tiers seen: {sorted(self.tiers)}"
            ) from None


#: Request terminal states counted by the service metrics.
SERVICE_STATUSES = ("completed", "rejected", "timeout", "cancelled",
                    "failed")


def summarize_service(records, registry=None) -> ServiceMetrics:
    """Fold a list of ``ServedRequest`` records into service metrics.

    The span is the wall-clock window from the earliest arrival to the
    latest finish across all engines; NPU utilization is the summed NPU
    busy time of completed prefills over that span (with independent
    per-engine timelines it can exceed 1 when several engines run
    concurrently).

    The accounting runs through a
    :class:`~repro.obs.metrics.MetricsRegistry` — counters for request
    outcomes and engine-time totals, histograms for latency samples —
    and the returned :class:`ServiceMetrics` is a read-out of those
    instruments.  Pass ``registry`` to aggregate into an existing
    registry (e.g. the service's own, for a ``--metrics-out`` export);
    by default a fresh one is used, so repeated calls stay idempotent.
    Aggregation preserves the observation order of ``records``, so the
    sums and percentiles are bit-identical to the pre-registry
    accounting.
    """
    from repro.errors import EngineError
    from repro.obs.metrics import as_registry
    records = list(records)
    if not records:
        raise EngineError("no requests served yet")
    reg = as_registry(registry)

    span = (max(r.finish_s for r in records)
            - min(r.arrival_s for r in records))
    tier_names: List[str] = []
    for r in records:
        if r.tier not in tier_names:
            tier_names.append(r.tier)
        reg.counter("service_requests_total",
                    tier=r.tier, status=r.status).inc()
        reg.counter("service_retries_total", tier=r.tier).inc(r.retries)
        if r.status == "completed":
            reg.histogram("service_turnaround_s",
                          tier=r.tier).observe(r.turnaround_s)
            reg.histogram("service_queueing_s",
                          tier=r.tier).observe(r.queueing_s)
            ttft = getattr(r, "ttft_s", None)
            if ttft is not None:
                reg.histogram("service_ttft_s",
                              tier=r.tier).observe(ttft)
            itl = getattr(r, "itl_s", None)
            if itl is not None:
                reg.histogram("service_itl_s", tier=r.tier).observe(itl)
            reg.counter("service_busy_s").inc(r.service_s)
            if r.report is not None:
                reg.counter("service_npu_busy_s").inc(
                    r.report.prefill.npu_busy_s)
                reg.counter("service_energy_j").inc(r.report.energy_j)

    def status_count(tier: str, status: str) -> int:
        return int(reg.value("service_requests_total",
                             tier=tier, status=status))

    tiers: Dict[str, TierStats] = {}
    for name in sorted(tier_names):
        counts = {s: status_count(name, s) for s in SERVICE_STATUSES}
        turnaround = reg.histogram("service_turnaround_s", tier=name)
        queueing = reg.histogram("service_queueing_s", tier=name)
        ttft = reg.histogram("service_ttft_s", tier=name)
        itl = reg.histogram("service_itl_s", tier=name)
        n_done = counts["completed"]
        tiers[name] = TierStats(
            tier=name,
            n_requests=sum(counts.values()),
            n_completed=n_done,
            n_rejected=counts["rejected"],
            n_timeout=counts["timeout"],
            n_cancelled=counts["cancelled"],
            n_failed=counts["failed"],
            n_retries=int(reg.value("service_retries_total", tier=name)),
            p50_turnaround_s=(turnaround.percentile(50)
                              if turnaround.count else 0.0),
            p95_turnaround_s=(turnaround.percentile(95)
                              if turnaround.count else 0.0),
            mean_queueing_s=queueing.mean,
            throughput_rps=(n_done / span if span > 0 else 0.0),
            p50_ttft_s=ttft.percentile(50) if ttft.count else 0.0,
            p95_ttft_s=ttft.percentile(95) if ttft.count else 0.0,
            mean_itl_s=itl.mean if itl.count else 0.0,
        )

    npu_busy = reg.value("service_npu_busy_s")
    busy = reg.value("service_busy_s")
    return ServiceMetrics(
        span_s=span,
        n_requests=sum(t.n_requests for t in tiers.values()),
        n_completed=sum(t.n_completed for t in tiers.values()),
        n_rejected=sum(t.n_rejected for t in tiers.values()),
        n_timeout=sum(t.n_timeout for t in tiers.values()),
        n_cancelled=sum(t.n_cancelled for t in tiers.values()),
        n_failed=sum(t.n_failed for t in tiers.values()),
        n_retries=sum(t.n_retries for t in tiers.values()),
        npu_busy_s=npu_busy,
        npu_utilization=(npu_busy / span if span > 0 else 0.0),
        busy_fraction=(busy / span if span > 0 else 0.0),
        total_energy_j=reg.value("service_energy_j"),
        tiers=tiers,
    )


def goodput_rps(records, ttft_slo_s) -> float:
    """SLO-met requests per second over one served workload.

    A request counts toward goodput when it completed *and* its TTFT
    met the SLO bound — ``ttft_slo_s`` is either one bound for every
    request or a ``{tier_name: bound}`` mapping (tiers absent from the
    mapping are unbounded).  The denominator is the same
    earliest-arrival-to-latest-finish span
    :func:`summarize_service` uses, so goodput and throughput are
    directly comparable.
    """
    from repro.errors import EngineError
    records = list(records)
    if not records:
        raise EngineError("no requests served yet")

    def bound(tier: str) -> float:
        if isinstance(ttft_slo_s, dict):
            return float(ttft_slo_s.get(tier, float("inf")))
        return float(ttft_slo_s)

    span = (max(r.finish_s for r in records)
            - min(r.arrival_s for r in records))
    good = 0
    for r in records:
        if r.status != "completed":
            continue
        ttft = getattr(r, "ttft_s", None)
        if ttft is not None and ttft <= bound(r.tier):
            good += 1
    return good / span if span > 0 else 0.0
