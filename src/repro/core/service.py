"""LLM-as-a-System-Service (§3.1) — a multi-tenant service scheduler.

The paper positions llm.npu as the inference engine behind an OS-level
"LLM-as-a-System-Service" [99, 102]: applications submit prompts to one
shared, already-prepared engine instead of each paying the multi-second
graph preparation themselves.  :class:`LlmService` models that layer:

* engines are prepared lazily per (model, device) and cached — the
  preparation cost (§3.2's one-time graph build + optimize) is paid once
  and amortized over all subsequent requests;
* each prepared engine owns an **independent timeline**: requests for
  one model never inflate the queueing delay reported for another;
* requests carry a **tier** (interactive vs. background); the scheduler
  dispatches by tier priority, then arrival, then id — mobile NPUs don't
  preempt (§3.4/Eq. 4), so prioritization happens at dispatch points;
* an **admission controller** rejects a request on arrival when its
  projected queueing delay exceeds the tier's SLO::

      wait(r) = max(0, engine_free - arrival(r))
                + sum(est_service(q) for queued q dispatched before r)

      reject iff wait(r) > tier(r).slo_queueing_s

* requests time out: one still queued past ``arrival + timeout_s`` is
  cancelled instead of dispatched (and a request retrying past its
  deadline gives up);
* transient engine faults (see :class:`~repro.hw.sim.FaultInjector`)
  are retried with exponential backoff up to the tier's cap; permanent
  faults fail the request immediately;
* the service keeps per-tier statistics (latency percentiles,
  rejection/retry/timeout counts, NPU utilization) — see
  :func:`~repro.core.results.summarize_service`.

Two serving paths coexist:

* :meth:`LlmService.submit` — the legacy synchronous path: the caller
  blocks for this one request, so it is dispatched immediately after
  whatever is already on the engine's timeline (no admission control,
  no timeout unless one is passed explicitly);
* :meth:`LlmService.enqueue` + :meth:`LlmService.run` — the scheduler
  path: requests accumulate with arrival timestamps, then ``run`` plays
  the whole arrival stream through the admission controller and the
  priority queue deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.engine import EngineConfig, LlmNpuEngine
from repro.core.results import (
    InferenceReport,
    ServiceMetrics,
    summarize_service,
)
from repro.core.scheduler import (
    BatchConfig,
    ChunkContinuation,
    PlannedItem,
    RequestQueue,
    StepItem,
    StepRecord,
    plan_step,
)
from repro.errors import (
    EngineError,
    PermanentEngineError,
    TransientEngineError,
)
from repro.graph.chunk import chunk_token_lengths
from repro.graph.memory_plan import kv_cache_bytes
from repro.hw.sim import FaultInjector, FaultSpec
from repro.hw.soc import SocSpec, get_device
from repro.model.config import ModelConfig, get_model_config
from repro.obs.metrics import MetricsRegistry, as_registry
from repro.obs.steplog import Decision
from repro.obs.tracer import Tracer, as_tracer
from repro.workloads.datasets import WorkloadSample

#: Fraction of a request's estimated service time a *failed* execution
#: attempt consumes before the fault surfaces (the graph dies part-way
#: through its subgraph schedule, not at submit time).
FAULT_ATTEMPT_FRACTION = 0.25


def request_track(request_id: int) -> str:
    """Trace-track (thread) name of one request's lifecycle spans."""
    return f"req {request_id:05d}"


def _prefill_chunk_costs(prefill, n_chunks: int) -> List[float]:
    """Per-chunk sim-clock costs of one estimated prefill.

    Derived from the chunk-finish times of the simulated subgraph
    schedule (chunk ``c``'s cost is the schedule time between the
    previous chunk's completion and its own, in completion order; the
    first chunk absorbs any serial graph-preparation offset), so the
    costs sum to ``prefill.latency_s`` exactly and the step loop's
    telescoped chunk spans reproduce the whole-request latency.  Falls
    back to a uniform split when the report carries no trace.
    """
    if n_chunks <= 0:
        raise EngineError(f"n_chunks must be positive, got {n_chunks}")
    latency = prefill.latency_s
    facts = prefill.facts
    if facts is not None and len(facts.chunk_finish) == n_chunks:
        costs: List[float] = []
        prev = 0.0
        for _chunk, finish in facts.chunk_finish:
            costs.append(finish - prev)
            prev = finish
        costs[0] += latency - prev
        return costs
    per = latency / n_chunks
    return [per] * (n_chunks - 1) + [latency - per * (n_chunks - 1)]


def _decode_token_costs(decode_latency_s: float,
                        output_tokens: int) -> List[float]:
    """Per-token decode costs (last token absorbs rounding so the list
    sums to ``decode_latency_s`` exactly)."""
    if output_tokens <= 0:
        return []
    per = decode_latency_s / output_tokens
    return ([per] * (output_tokens - 1)
            + [decode_latency_s - per * (output_tokens - 1)])


@dataclass(frozen=True)
class TierPolicy:
    """Scheduling contract of one service tier.

    ``priority`` orders dispatch (higher first).  ``slo_queueing_s`` is
    the admission bound: a request whose projected queueing delay
    exceeds it is rejected on arrival.  ``timeout_s`` bounds the whole
    wait: a request not finished retrying / not yet dispatched by
    ``arrival + timeout_s`` is cancelled.  ``max_retries`` and
    ``retry_backoff_s`` govern recovery from transient engine faults
    (exponential backoff: ``backoff * 2**attempt``).
    """

    name: str
    priority: int
    slo_queueing_s: float = math.inf
    timeout_s: float = math.inf
    max_retries: int = 2
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.slo_queueing_s < 0 or self.timeout_s < 0:
            raise EngineError("SLO and timeout must be non-negative")
        if self.max_retries < 0:
            raise EngineError("max_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise EngineError("retry_backoff_s must be non-negative")


#: Foreground tier: user is watching (UI automation, chat).
INTERACTIVE_TIER = TierPolicy(
    name="interactive", priority=10,
    slo_queueing_s=3.0, timeout_s=30.0,
    max_retries=2, retry_backoff_s=0.05,
)

#: Best-effort tier: summarization, indexing, prefetch.
BACKGROUND_TIER = TierPolicy(
    name="background", priority=0,
    slo_queueing_s=20.0, timeout_s=180.0,
    max_retries=3, retry_backoff_s=0.2,
)

DEFAULT_TIERS: Dict[str, TierPolicy] = {
    INTERACTIVE_TIER.name: INTERACTIVE_TIER,
    BACKGROUND_TIER.name: BACKGROUND_TIER,
}


@dataclass(frozen=True)
class ServiceRequest:
    """One pending request on an engine's queue."""

    request_id: int
    model: str
    prompt_tokens: int
    output_tokens: int
    cached_tokens: int
    arrival_s: float
    tier: TierPolicy
    timeout_s: float

    @property
    def priority(self) -> int:
        return self.tier.priority

    @property
    def deadline_s(self) -> float:
        return self.arrival_s + self.timeout_s


@dataclass(frozen=True)
class ServedRequest:
    """One finished (or shed) request with its service-level timings.

    ``status`` is one of ``completed`` / ``rejected`` (admission
    control) / ``timeout`` (deadline passed while queued or retrying) /
    ``cancelled`` (explicit :meth:`LlmService.cancel`) / ``failed``
    (permanent fault, or transient faults past the retry cap).  Only
    completed requests carry a report.  ``service_s`` includes the time
    consumed by failed attempts and retry backoff — the engine was held
    for that span on this request's behalf.

    ``batched`` marks records produced by the step loop;
    ``prefill_end_s`` / ``first_token_s`` are the measured stage
    boundaries (the first token is emitted when the last prefill chunk
    completes), and ``retry_held_s`` is the engine time consumed by
    failed attempts plus backoff before the successful one.  The legacy
    per-request path fills the same fields from its serial timeline, so
    TTFT/ITL read identically across both paths.
    """

    request_id: int
    model: str
    arrival_s: float
    start_s: float
    finish_s: float
    report: Optional[InferenceReport] = None
    tier: str = INTERACTIVE_TIER.name
    status: str = "completed"
    retries: int = 0
    batched: bool = False
    prefill_end_s: Optional[float] = None
    first_token_s: Optional[float] = None
    retry_held_s: float = 0.0

    @property
    def queueing_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.start_s

    @property
    def turnaround_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> Optional[float]:
        """Arrival to first token (None unless the request completed)."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def itl_s(self) -> Optional[float]:
        """Mean inter-token latency over the decode stream.

        None when the request did not complete or decoded nothing —
        such requests contribute no ITL samples.
        """
        if (self.first_token_s is None or self.report is None
                or self.report.output_tokens <= 0):
            return None
        return ((self.finish_s - self.first_token_s)
                / self.report.output_tokens)

    def key(self) -> Tuple:
        """Canonical value tuple (determinism checks compare these)."""
        return (self.request_id, self.model, self.tier, self.status,
                self.retries, self.arrival_s, self.start_s, self.finish_s,
                None if self.report is None else self.report.e2e_latency_s)


class ChatSession:
    """A multi-turn conversation served with KV-cache reuse.

    Each turn prefills only the *new* tokens (chunk-aligned, §3.2's
    static-shape constraint) against the KV established by earlier turns;
    the model's own replies also land in the cache.
    """

    def __init__(self, service: "LlmService", model):
        self.service = service
        self.model = model
        self.context_tokens = 0
        self.turns: List[ServedRequest] = []

    def submit_turn(self, new_tokens: int,
                    output_tokens: int = 0) -> ServedRequest:
        """One user turn: prefill the new tokens, decode the reply."""
        if new_tokens <= 0:
            raise EngineError("new_tokens must be positive")
        record = self.service.submit(
            self.model, new_tokens, output_tokens,
            cached_tokens=self.context_tokens,
        )
        self.context_tokens += new_tokens + output_tokens
        self.turns.append(record)
        return record

    @property
    def n_turns(self) -> int:
        return len(self.turns)


@dataclass
class ServiceStats:
    """Aggregate service metrics (legacy view; see also
    :class:`~repro.core.results.ServiceMetrics` for the per-tier one)."""

    n_requests: int
    preparation_s: float
    mean_turnaround_s: float
    p95_turnaround_s: float
    mean_queueing_s: float
    total_energy_j: float
    throughput_rps: float


class LlmService:
    """A shared on-device LLM service over prepared llm.npu engines.

    ``scheduler`` is ``'priority'`` (tier-aware dispatch) or ``'fifo'``
    (pure arrival order — the seed's single-queue behaviour, kept as the
    comparison baseline).  ``admission`` toggles the SLO-based admission
    controller on the :meth:`enqueue`/:meth:`run` path.  ``fault_spec``
    attaches one deterministic fault injector shared by every engine the
    service prepares.

    ``tracer`` enables request-scoped tracing: every request's lifecycle
    (queued → retries → prefill chunks → decode, plus admission /
    timeout / cancellation markers) lands on the tracer stamped with the
    service's sim clock — see :mod:`repro.obs` and
    :func:`repro.obs.export.service_timeline` for the merged
    hw-plus-service Perfetto export.  Tracing is pure observation: with
    or without it, the served records are bit-identical.  ``metrics``
    supplies the live :class:`~repro.obs.metrics.MetricsRegistry`
    (request outcomes, admission decisions, fault counts, latency
    histograms); a fresh registry is created when omitted.
    """

    def __init__(self, device: Union[str, SocSpec],
                 config: Optional[EngineConfig] = None,
                 scheduler: str = "priority",
                 admission: bool = True,
                 fault_spec: Optional[FaultSpec] = None,
                 tiers: Optional[Dict[str, TierPolicy]] = None,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 batching: Optional[BatchConfig] = None):
        if scheduler not in ("priority", "fifo"):
            raise EngineError(
                f"unknown scheduler {scheduler!r}; use 'priority' or 'fifo'"
            )
        if batching is not None and not isinstance(batching, BatchConfig):
            raise EngineError("batching must be a BatchConfig or None")
        self.device = get_device(device) if isinstance(device, str) else device
        self.config = config if config is not None else EngineConfig()
        self.scheduler = scheduler
        self.admission = admission
        self.batching = batching
        self._steps: List[StepRecord] = []
        self.tiers = dict(DEFAULT_TIERS if tiers is None else tiers)
        self.tracer = as_tracer(tracer)
        self.metrics_registry = as_registry(metrics)
        self.fault_injector = (FaultInjector(fault_spec)
                               if fault_spec is not None else None)
        if self.fault_injector is not None and self.tracer.enabled:
            self.fault_injector.attach_tracer(self.tracer)
        self._engines: Dict[str, LlmNpuEngine] = {}
        self._prepared: Dict[str, float] = {}
        self._clocks: Dict[str, float] = {}
        self._requests: List[ServedRequest] = []
        self._pending: Dict[str, List[ServiceRequest]] = {}
        self._cancelled: set = set()
        self._est_cache: Dict[Tuple, InferenceReport] = {}
        self._observers: List = []
        self._step_sinks: List = []
        self._decision_sinks: List = []
        self._next_id = 0

    # -- engine lifecycle -----------------------------------------------------

    def engine_for(self, model: Union[str, ModelConfig]) -> LlmNpuEngine:
        """The prepared engine for a model; prepares (once) on first use.

        Preparation time starts that engine's own timeline — the first
        request for a model pays the warm-up, later ones don't (§3.2's
        point), and other models' timelines are unaffected.
        """
        cfg = get_model_config(model) if isinstance(model, str) else model
        if cfg.name not in self._engines:
            engine = LlmNpuEngine(cfg, self.device, self.config,
                                  fault_injector=self.fault_injector)
            engine.builder.attach_metrics(self.metrics_registry)
            prep = engine.preparation_s()
            self._engines[cfg.name] = engine
            self._prepared[cfg.name] = prep
            self._clocks[cfg.name] = prep
            self.metrics_registry.counter(
                "service_engines_prepared_total").inc()
            self.metrics_registry.counter(
                "service_preparation_s").inc(prep)
            if self.tracer.enabled:
                self.tracer.span(
                    "prepare", proc=f"hw {cfg.name}", thread="lifecycle",
                    start_s=0.0, end_s=prep, cat="lifecycle",
                    model=cfg.name,
                )
        return self._engines[cfg.name]

    @property
    def loaded_models(self) -> List[str]:
        return sorted(self._engines)

    def preparation_s(self, model: Optional[str] = None) -> float:
        """Preparation time paid so far (for one model or total)."""
        if model is not None:
            try:
                return self._prepared[model]
            except KeyError:
                raise EngineError(f"model {model!r} not prepared") from None
        return sum(self._prepared.values())

    def engine_clock_s(self, model: str) -> float:
        """Current time on one engine's independent timeline."""
        try:
            return self._clocks[model]
        except KeyError:
            raise EngineError(f"model {model!r} not prepared") from None

    def _tier(self, tier: Union[str, TierPolicy]) -> TierPolicy:
        if isinstance(tier, TierPolicy):
            return tier
        try:
            return self.tiers[tier]
        except KeyError:
            raise EngineError(
                f"unknown tier {tier!r}; available: {sorted(self.tiers)}"
            ) from None

    # -- cost estimation ------------------------------------------------------

    def _estimate(self, engine: LlmNpuEngine,
                  req: ServiceRequest) -> InferenceReport:
        """Deterministic service-time estimate (== the actual report).

        The simulator is deterministic, so the admission controller's
        estimate and the eventual execution are the same computation;
        memoization makes re-estimating queued requests free.  Fault
        draws are suspended — estimation must not perturb the injected
        fault stream.
        """
        # The prefill memo in core.pipeline does not make this cache
        # redundant: it skips only lowering and simulation, while a miss
        # here still pays decode, energy and memory accounting in
        # engine.infer.  Without it a fleet device runs infer about 91
        # times instead of 25, and fleet throughput roughly halves.
        key = (req.model, req.prompt_tokens, req.output_tokens,
               req.cached_tokens)
        if key not in self._est_cache:
            if self.fault_injector is not None:
                with self.fault_injector.suspended():
                    report = engine.infer(req.prompt_tokens,
                                          req.output_tokens,
                                          cached_tokens=req.cached_tokens)
            else:
                report = engine.infer(req.prompt_tokens, req.output_tokens,
                                      cached_tokens=req.cached_tokens)
            self._est_cache[key] = report
        return self._est_cache[key]

    # -- execution ------------------------------------------------------------

    def _execute(self, engine: LlmNpuEngine, req: ServiceRequest,
                 dispatch_s: float) -> ServedRequest:
        """Run one dispatched request, retrying transient faults.

        The engine is held from ``dispatch_s`` until the returned
        record's ``finish_s`` (mobile NPUs don't preempt), through the
        retry arithmetic of :meth:`_attempt`.

        Tracing (when enabled) is strictly observational: spans are
        emitted alongside the clock arithmetic, never folded into it,
        so the returned record is identical with tracing on or off.
        """
        est = self._estimate(engine, req)
        now, attempts, status = self._attempt(engine, req, est, dispatch_s)
        if status is None:
            finish, status, report = now + est.e2e_latency_s, "completed", est
            prefill_end = first_token = now + est.prefill.latency_s
            if self.tracer.enabled:
                self._trace_success(request_track(req.request_id), req, est,
                                    now)
        else:
            finish, report = now, None
            prefill_end = first_token = None
        return ServedRequest(
            request_id=req.request_id,
            model=req.model,
            arrival_s=req.arrival_s,
            start_s=dispatch_s,
            finish_s=finish,
            report=report,
            tier=req.tier.name,
            status=status,
            retries=attempts - 1,
            prefill_end_s=prefill_end,
            first_token_s=first_token,
            retry_held_s=now - dispatch_s,
        )

    def _attempt(self, engine: LlmNpuEngine, req: ServiceRequest,
                 est: InferenceReport,
                 dispatch_s: float) -> Tuple[float, int, Optional[str]]:
        """Draw faults for one dispatched request until an attempt is
        clean or the request gives up — the retry arithmetic both serving
        paths share.

        Each failed attempt holds the engine for
        :data:`FAULT_ATTEMPT_FRACTION` of the service estimate, then the
        tier's exponential backoff elapses before the next draw.  Returns
        ``(now, attempts, status)``: ``now`` is when the clean attempt
        starts (or the request gave up), and ``status`` is ``None`` on
        success, ``"failed"`` on a permanent fault or exhausted retries,
        and ``"timeout"`` when the next attempt would start past the
        deadline.  Emits the ``queued``, ``attempt`` and ``backoff``
        spans and the ``service_faults_total`` counter.
        """
        tr = self.tracer
        track = request_track(req.request_id)
        if tr.enabled and dispatch_s > req.arrival_s:
            tr.span("queued", proc="service", thread=track,
                    start_s=req.arrival_s, end_s=dispatch_s, cat="queue",
                    tier=req.tier.name)
        now = dispatch_s
        attempts = 0
        while True:
            attempts += 1
            kind = None
            try:
                engine.check_fault(now_s=now)
            except TransientEngineError:
                kind = "transient"
            except PermanentEngineError:
                kind = "permanent"
            if kind is None:
                return now, attempts, None
            self.metrics_registry.counter("service_faults_total",
                                          kind=kind).inc()
            if tr.enabled:
                tr.span(f"attempt {attempts}", proc="service",
                        thread=track, start_s=now,
                        end_s=now + FAULT_ATTEMPT_FRACTION
                        * est.e2e_latency_s,
                        cat="retry", fault=kind, attempt=attempts)
            now += FAULT_ATTEMPT_FRACTION * est.e2e_latency_s
            if kind == "permanent" or attempts > req.tier.max_retries:
                return now, attempts, "failed"
            if tr.enabled:
                tr.span("backoff", proc="service", thread=track,
                        start_s=now,
                        end_s=now + req.tier.retry_backoff_s
                        * (2 ** (attempts - 1)),
                        cat="retry", attempt=attempts)
            now += req.tier.retry_backoff_s * (2 ** (attempts - 1))
            if now > req.deadline_s:
                return now, attempts, "timeout"

    def _trace_success(self, track: str, req: ServiceRequest,
                       est: InferenceReport, start_s: float) -> None:
        """Spans of one successful execution attempt.

        The request track gets the serial ``prefill`` / ``decode``
        stages; a sibling ``<track> chunks`` track carries the
        chunk-completion partition of the prefill (chunk ``c``'s span
        ends when the simulated schedule finishes its last subgraph), so
        every track stays serially consistent on the merged timeline.
        """
        prefill = est.prefill
        prefill_end = start_s + prefill.latency_s
        self.tracer.span(
            "prefill", proc="service", thread=track, start_s=start_s,
            end_s=prefill_end, cat="prefill", tier=req.tier.name,
            prompt_tokens=req.prompt_tokens,
            cached_tokens=req.cached_tokens, n_chunks=prefill.n_chunks,
        )
        if prefill.facts is not None:
            chunk_track = f"{track} chunks"
            # latency may exceed the schedule's makespan by serial
            # graph-preparation time (the naive-engine path)
            offset = prefill_end - prefill.trace.makespan_s
            if offset > start_s:
                self.tracer.span(
                    "graph prepare", proc="service", thread=chunk_track,
                    start_s=start_s, end_s=offset, cat="prefill",
                )
            prev = max(start_s, offset)
            for chunk, finish in prefill.facts.chunk_finish:
                end = offset + finish
                self.tracer.span(
                    f"chunk {chunk}", proc="service", thread=chunk_track,
                    start_s=prev, end_s=end, cat="prefill", chunk=chunk,
                )
                prev = end
        if est.decode_latency_s > 0:
            self.tracer.span(
                "decode", proc="service", thread=track,
                start_s=prefill_end,
                end_s=prefill_end + est.decode_latency_s, cat="decode",
                tier=req.tier.name, output_tokens=req.output_tokens,
            )

    def add_observer(self, observer) -> None:
        """Register a streaming consumer of finished request records.

        ``observer`` is called as ``observer(record)`` with every
        :class:`ServedRequest` the service finalizes (all terminal
        statuses, both serving paths), synchronously at the point the
        record is folded into the live metrics.  Observation is strictly
        read-only: observers receive the frozen record after all clock
        arithmetic is done, so attaching any number of them leaves the
        served results byte-identical (the same no-op guarantee tracing
        makes).  This is the hook the SLO monitors
        (:class:`~repro.obs.monitor.SloMonitor`) ride on.
        """
        if not callable(observer):
            raise EngineError("observer must be callable")
        self._observers.append(observer)

    def add_step_observer(self, observer) -> None:
        """Register a consumer of the scheduler's step telemetry.

        ``observer`` is duck-typed: its optional ``on_step(record)``
        receives every executed
        :class:`~repro.core.scheduler.StepRecord` and its optional
        ``on_decision(decision)`` every typed
        :class:`~repro.obs.steplog.Decision` (admissions, dispatches,
        per-step chunk/decode scheduling and skips, terminal statuses —
        see :data:`~repro.obs.steplog.DECISION_ACTIONS`).  Like
        :meth:`add_observer` this is strictly read-only, and with no
        step observers attached the serving paths do no telemetry work
        at all — golden artifacts stay byte-identical either way.

        Both hooks are bound here, once: the service calls the bound
        methods it looked up at registration.
        """
        on_step = getattr(observer, "on_step", None)
        on_decision = getattr(observer, "on_decision", None)
        if not (callable(on_step) or callable(on_decision)):
            raise EngineError(
                "step observer must define on_step() or on_decision()")
        if callable(on_step):
            self._step_sinks.append(on_step)
        if callable(on_decision):
            self._decision_sinks.append(on_decision)

    def _emit_decision(self, t_s: float, request_id: int, tier: str,
                       action: str, step: Optional[int] = None,
                       quantity: Optional[str] = None,
                       value: Optional[float] = None,
                       limit: Optional[float] = None) -> None:
        """Fan one scheduler decision out to the step observers."""
        decision = Decision(t_s, request_id, action, tier, step, quantity,
                            value, limit)
        for sink in self._decision_sinks:
            sink(decision)

    def _observe(self, record: ServedRequest) -> None:
        """Fold one finished record into the live metrics registry."""
        reg = self.metrics_registry
        reg.counter("service_requests_total", tier=record.tier,
                    status=record.status).inc()
        if record.retries:
            reg.counter("service_retries_total",
                        tier=record.tier).inc(record.retries)
        if record.status == "completed":
            reg.histogram("service_turnaround_s",
                          tier=record.tier).observe(record.turnaround_s)
            reg.histogram("service_queueing_s",
                          tier=record.tier).observe(record.queueing_s)
            if record.ttft_s is not None:
                reg.histogram("service_ttft_s",
                              tier=record.tier).observe(record.ttft_s)
            if record.itl_s is not None:
                reg.histogram("service_itl_s",
                              tier=record.tier).observe(record.itl_s)
        if self._decision_sinks:
            self._emit_decision(
                record.finish_s, record.request_id, record.tier,
                record.status, quantity="turnaround_s",
                value=record.turnaround_s,
            )
        for observer in self._observers:
            observer(record)

    # -- synchronous serving (legacy path) ------------------------------------

    def submit(self, model: Union[str, ModelConfig], prompt_tokens: int,
               output_tokens: int = 0,
               arrival_s: Optional[float] = None,
               cached_tokens: int = 0,
               tier: Union[str, TierPolicy] = INTERACTIVE_TIER.name,
               timeout_s: Optional[float] = None) -> ServedRequest:
        """Serve one request immediately; returns its service record.

        ``arrival_s`` defaults to "now" (the engine's current clock); an
        arrival in the past queues behind whatever is running on *that
        engine's* timeline.  The synchronous path bypasses admission
        control and, unless ``timeout_s`` is given, never times out —
        the caller is blocking on this request.
        """
        engine = self.engine_for(model)
        name = engine.model.name
        clock = self._clocks[name]
        arrival = clock if arrival_s is None else float(arrival_s)
        req = ServiceRequest(
            request_id=self._next_id,
            model=name,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            cached_tokens=cached_tokens,
            arrival_s=arrival,
            tier=self._tier(tier),
            timeout_s=math.inf if timeout_s is None else float(timeout_s),
        )
        self._next_id += 1
        record = self._execute(engine, req, max(clock, arrival))
        self._clocks[name] = max(clock, record.finish_s)
        self._requests.append(record)
        self._observe(record)
        return record

    def submit_workload(self, model: Union[str, ModelConfig],
                        samples: List[WorkloadSample],
                        inter_arrival_s: float = 0.0) -> List[ServedRequest]:
        """Serve a batch of workload samples with fixed inter-arrival gaps."""
        if inter_arrival_s < 0:
            raise EngineError("inter_arrival_s must be non-negative")
        # Prepare the engine before the arrival clock starts: workload
        # requests queue behind each other, not behind the one-time
        # preparation (which the service pays at model-load time).
        engine = self.engine_for(model)
        base = self._clocks[engine.model.name]
        out = []
        for i, sample in enumerate(samples):
            out.append(self.submit(
                model, sample.prompt_tokens, sample.output_tokens,
                arrival_s=base + i * inter_arrival_s,
            ))
        return out

    def open_chat(self, model: Union[str, ModelConfig]) -> "ChatSession":
        """Start a multi-turn conversation with KV-cache reuse."""
        return ChatSession(self, model)

    # -- scheduled serving (enqueue/run path) ---------------------------------

    def enqueue(self, model: Union[str, ModelConfig], prompt_tokens: int,
                output_tokens: int = 0,
                arrival_s: float = 0.0,
                cached_tokens: int = 0,
                tier: Union[str, TierPolicy] = INTERACTIVE_TIER.name,
                timeout_s: Optional[float] = None) -> int:
        """Queue one request for the next :meth:`run`; returns its id.

        ``arrival_s`` is measured from the engine's *service-ready
        epoch* (the instant its one-time preparation finished), so
        arrival streams describe steady-state load and never queue
        behind the warm-up.  ``timeout_s`` defaults to the tier's
        policy.
        """
        if arrival_s < 0:
            raise EngineError("arrival_s must be non-negative")
        engine = self.engine_for(model)
        policy = self._tier(tier)
        req = ServiceRequest(
            request_id=self._next_id,
            model=engine.model.name,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            cached_tokens=cached_tokens,
            arrival_s=self._prepared[engine.model.name] + float(arrival_s),
            tier=policy,
            timeout_s=(policy.timeout_s if timeout_s is None
                       else float(timeout_s)),
        )
        self._next_id += 1
        self._pending.setdefault(req.model, []).append(req)
        return req.request_id

    def cancel(self, request_id: int) -> None:
        """Cancel a still-pending request (a no-op once it has run)."""
        self._cancelled.add(request_id)

    def _shed(self, req: ServiceRequest, at_s: float,
              status: str) -> ServedRequest:
        """A record for a request that never ran (no engine time used)."""
        if self.tracer.enabled:
            track = request_track(req.request_id)
            if at_s > req.arrival_s:
                self.tracer.span("queued", proc="service", thread=track,
                                 start_s=req.arrival_s, end_s=at_s,
                                 cat="queue", tier=req.tier.name)
            self.tracer.instant(status, proc="service", thread=track,
                                ts_s=at_s, cat="lifecycle",
                                tier=req.tier.name)
        return ServedRequest(
            request_id=req.request_id, model=req.model,
            arrival_s=req.arrival_s, start_s=at_s, finish_s=at_s,
            report=None, tier=req.tier.name, status=status, retries=0,
        )

    def _admit(self, queue: RequestQueue, req: ServiceRequest,
               free_s: float, records: List[ServedRequest]) -> None:
        """Process one arrival: cancel, reject, or push onto the queue.

        The projected queueing delay is the engine's remaining busy time
        plus the estimated service of every queued request that would be
        dispatched before this one (higher key in the queue's order).
        """
        if req.request_id in self._cancelled:
            records.append(self._shed(req, req.arrival_s, "cancelled"))
            return
        wait = None
        if self.admission:
            engine = self._engines[req.model]
            wait = max(0.0, free_s - req.arrival_s)
            for queued in queue.ahead_of(req):
                wait += self._estimate(engine, queued).e2e_latency_s
            if wait > req.tier.slo_queueing_s:
                self.metrics_registry.counter(
                    "service_admission_total", decision="rejected").inc()
                if self.tracer.enabled:
                    self.tracer.instant(
                        "admission.reject", proc="service",
                        thread=request_track(req.request_id),
                        ts_s=req.arrival_s, cat="admission",
                        tier=req.tier.name, projected_wait_s=wait,
                        slo_s=req.tier.slo_queueing_s,
                    )
                if self._decision_sinks:
                    self._emit_decision(
                        req.arrival_s, req.request_id, req.tier.name,
                        "admission-rejected",
                        quantity="projected_wait_s", value=wait,
                        limit=req.tier.slo_queueing_s,
                    )
                records.append(self._shed(req, req.arrival_s, "rejected"))
                return
            self.metrics_registry.counter(
                "service_admission_total", decision="admitted").inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    "admission.admit", proc="service",
                    thread=request_track(req.request_id),
                    ts_s=req.arrival_s, cat="admission",
                    tier=req.tier.name, projected_wait_s=wait,
                )
        if self._decision_sinks:
            self._emit_decision(
                req.arrival_s, req.request_id, req.tier.name, "admitted",
                quantity="projected_wait_s", value=wait,
                limit=(req.tier.slo_queueing_s if self.admission
                       else None),
            )
        queue.push(req, now_s=req.arrival_s)

    def run(self) -> List[ServedRequest]:
        """Play every pending arrival stream to completion.

        Engines are processed in sorted model order, each on its own
        timeline; within an engine the event loop alternates between
        admitting the arrivals that occurred up to the engine's next
        free instant and dispatching the best queued request.  The
        result (and every admission decision) is a pure function of the
        enqueued requests, the scheduler mode, and the fault spec.

        With any :class:`~repro.core.scheduler.BatchConfig` attached the
        loop runs at iteration granularity instead
        (:meth:`_run_step_loop`).
        """
        if self.batching is not None:
            return self._run_step_loop()
        new_records: List[ServedRequest] = []
        for model_name in sorted(self._pending):
            reqs = sorted(self._pending[model_name],
                          key=lambda r: (r.arrival_s, r.request_id))
            engine = self._engines[model_name]
            free_s = self._clocks[model_name]
            queue = RequestQueue(self.scheduler, tracer=self.tracer)
            idx = 0
            while idx < len(reqs) or queue:
                while idx < len(reqs) and reqs[idx].arrival_s <= free_s:
                    self._admit(queue, reqs[idx], free_s, new_records)
                    idx += 1
                if not queue:
                    if idx < len(reqs):
                        # engine idles until the next arrival
                        free_s = max(free_s, reqs[idx].arrival_s)
                        continue
                    break
                req = queue.pop(now_s=free_s)
                if req.request_id in self._cancelled:
                    new_records.append(self._shed(req, req.arrival_s,
                                                  "cancelled"))
                    continue
                if free_s > req.deadline_s:
                    # waited past its deadline: cancelled, engine unused
                    new_records.append(self._shed(req, req.deadline_s,
                                                  "timeout"))
                    continue
                if self._decision_sinks:
                    self._emit_decision(
                        free_s, req.request_id, req.tier.name,
                        "dispatched", quantity="queueing_s",
                        value=free_s - req.arrival_s,
                    )
                record = self._execute(engine, req, free_s)
                free_s = max(free_s, record.finish_s)
                new_records.append(record)
            self._clocks[model_name] = free_s
        self._pending.clear()
        new_records.sort(key=lambda r: r.request_id)
        self._requests.extend(new_records)
        for record in new_records:
            self._observe(record)
        return new_records

    # -- iteration-level serving (step loop) ----------------------------------

    @property
    def steps(self) -> List[StepRecord]:
        """Audit log of every step the batched loop has executed."""
        return list(self._steps)

    def _start_batched(
            self, engine: LlmNpuEngine, req: ServiceRequest,
            dispatch_s: float,
    ) -> Tuple[Optional[ChunkContinuation], Optional[ServedRequest], float]:
        """Dispatch one request into the batch: fault prelude + state.

        Runs the same fault prelude as :meth:`_execute` (see
        :meth:`_attempt`) but stops at the point the successful attempt
        would begin, returning the request's :class:`ChunkContinuation`
        instead of running it to completion.  Returns ``(state, record,
        now)``: ``record`` is set (and ``state`` is None) when the
        prelude itself failed or timed out — the engine was held until
        ``now`` either way.
        """
        est = self._estimate(engine, req)
        now, attempts, status = self._attempt(engine, req, est, dispatch_s)
        if status is not None:
            record = ServedRequest(
                request_id=req.request_id, model=req.model,
                arrival_s=req.arrival_s, start_s=dispatch_s,
                finish_s=now, report=None, tier=req.tier.name,
                status=status, retries=attempts - 1, batched=True,
                retry_held_s=now - dispatch_s,
            )
            return None, record, now

        cfg = engine.config
        if cfg.chunking:
            chunk_lens = chunk_token_lengths(req.prompt_tokens,
                                             cfg.chunk_len,
                                             req.cached_tokens)
            chunk_offset = req.cached_tokens // cfg.chunk_len
        else:
            chunk_lens = [req.prompt_tokens]
            chunk_offset = 0
        if len(chunk_lens) != est.prefill.n_chunks:
            # engine chunked differently (defensive; should not happen
            # with the chunk-sharing engine) — split uniformly so token
            # conservation still holds
            n = max(1, est.prefill.n_chunks)
            base = req.prompt_tokens // n
            chunk_lens = [base] * (n - 1) + [req.prompt_tokens
                                             - base * (n - 1)]
            chunk_offset = 0
        budget = self.batching.max_batch_tokens
        if budget is not None and max(chunk_lens) > budget:
            raise EngineError(
                f"max_batch_tokens={budget} is smaller than a prefill "
                f"chunk of {max(chunk_lens)} tokens "
                f"(chunk_len={cfg.chunk_len}); the step loop cannot "
                f"make progress"
            )
        state = ChunkContinuation(
            request_id=req.request_id,
            priority=req.priority,
            arrival_s=req.arrival_s,
            dispatch_s=dispatch_s,
            tier_name=req.tier.name,
            chunk_lens=chunk_lens,
            chunk_costs=_prefill_chunk_costs(est.prefill, len(chunk_lens)),
            chunk_offset=chunk_offset,
            token_costs=_decode_token_costs(est.decode_latency_s,
                                            req.output_tokens),
            kv_reserved_bytes=kv_cache_bytes(
                engine.model,
                req.cached_tokens + req.prompt_tokens + req.output_tokens),
            retries=attempts - 1,
            retry_held_s=now - dispatch_s,
        )
        return state, None, now

    def _finalize_batched(self, engine: LlmNpuEngine, model_name: str,
                          state: ChunkContinuation, req: ServiceRequest,
                          finish_s: float) -> ServedRequest:
        """The completed record of one batched request."""
        est = self._estimate(engine, req)
        return ServedRequest(
            request_id=req.request_id, model=model_name,
            arrival_s=req.arrival_s, start_s=state.dispatch_s,
            finish_s=finish_s, report=est, tier=state.tier_name,
            status="completed", retries=state.retries, batched=True,
            prefill_end_s=state.prefill_end_s,
            first_token_s=state.first_token_s,
            retry_held_s=state.retry_held_s,
        )

    def _run_step_loop(self) -> List[ServedRequest]:
        """Iteration-level event loop: continuous batching with chunked
        prefill.

        Per engine timeline, each iteration of the outer loop is one
        sim-clock *step*: admit the arrivals up to ``now``, start queued
        requests into the batch (bounded by ``max_concurrency`` and the
        KV budget, head-of-line), then execute the step batch
        :func:`~repro.core.scheduler.plan_step` plans — prefill chunks
        of starting requests interleaved with one decode token per
        in-flight decoder, under ``max_batch_tokens``.  The engine is
        serial (mobile NPUs don't co-run graphs), so a step's items
        execute back-to-back; batching wins by *reordering* work across
        requests, not by overlapping it.

        Chunk-continuation state (cursor, decode progress, KV
        reservation) lives in per-request
        :class:`~repro.core.scheduler.ChunkContinuation` objects carried
        across steps; every executed step is appended to :attr:`steps`.
        A step costs what changed, not what is resident: the in-flight
        list and KV total are updated when a request starts or
        finishes, the queue caches its order and per-tier depths between
        pushes and pops, and each executed item is built once.
        """
        bcfg = self.batching
        tr = self.tracer
        budget_limit = (None if bcfg.max_batch_tokens is None
                        else float(bcfg.max_batch_tokens))
        new_records: List[ServedRequest] = []
        for model_name in sorted(self._pending):
            reqs = sorted(self._pending[model_name],
                          key=lambda r: (r.arrival_s, r.request_id))
            engine = self._engines[model_name]
            now = self._clocks[model_name]
            queue = RequestQueue(self.scheduler, tracer=self.tracer)
            inflight: List[ChunkContinuation] = []  # in start order
            kv_reserved = 0  # summed kv_reserved_bytes of inflight
            open_reqs: Dict[int, ServiceRequest] = {}
            idx = 0
            rotation = 0
            while idx < len(reqs) or queue or inflight:
                # Admission keeps the serial-equivalent projection:
                # batching reorders execution on a time-shared engine but
                # does not create capacity, so an arrival's wait is still
                # bounded below by the remaining work (prefill + decode)
                # of everything that precedes it in queue-key order.
                # Priority-awareness is the batched refinement — work the
                # arrival would preempt at the next chunk boundary does
                # not count against it, which is what lets interactive
                # requests through during a background burst.
                while idx < len(reqs) and reqs[idx].arrival_s <= now:
                    arrival = reqs[idx]
                    arrival_key = queue.key(arrival)
                    # The backlog is a float sum in *start order*, and
                    # each remaining_cost_s sums its own slices left to
                    # right: reordering inflight, or keeping a running
                    # total or suffix sums instead, would move bits.
                    backlog_s = now + sum(
                        s.remaining_cost_s for s in inflight
                        if queue.key(s) < arrival_key)
                    self._admit(queue, arrival, backlog_s, new_records)
                    idx += 1
                if not inflight and not queue:
                    if idx < len(reqs):
                        # engine idles until the next arrival
                        now = max(now, reqs[idx].arrival_s)
                        continue
                    break
                # start queued requests into the batch
                kv_blocked_id: Optional[int] = None
                while queue and (bcfg.max_concurrency is None
                                 or len(inflight) < bcfg.max_concurrency):
                    head = queue.peek()
                    if (bcfg.kv_budget_bytes is not None and inflight
                            and head.request_id not in self._cancelled):
                        projected = kv_cache_bytes(
                            engine.model,
                            head.cached_tokens + head.prompt_tokens
                            + head.output_tokens)
                        if kv_reserved + projected > bcfg.kv_budget_bytes:
                            kv_blocked_id = head.request_id
                            if self._decision_sinks:
                                self._emit_decision(
                                    now, head.request_id, head.tier.name,
                                    "kv-deferred",
                                    step=len(self._steps),
                                    quantity="kv_projected_bytes",
                                    value=float(kv_reserved + projected),
                                    limit=float(bcfg.kv_budget_bytes),
                                )
                            break  # head-of-line: wait for KV to free
                    req = queue.pop(now_s=now)
                    if req.request_id in self._cancelled:
                        new_records.append(
                            self._shed(req, req.arrival_s, "cancelled"))
                        continue
                    if now > req.deadline_s:
                        new_records.append(
                            self._shed(req, req.deadline_s, "timeout"))
                        continue
                    state, dead, now = self._start_batched(engine, req,
                                                           now)
                    if dead is not None:
                        new_records.append(dead)
                        continue
                    inflight.append(state)
                    kv_reserved += state.kv_reserved_bytes
                    open_reqs[req.request_id] = req
                    if self._decision_sinks:
                        self._emit_decision(
                            state.dispatch_s, req.request_id,
                            req.tier.name, "started",
                            step=len(self._steps),
                            quantity="kv_reserved_bytes",
                            value=float(state.kv_reserved_bytes),
                            limit=(None if bcfg.kv_budget_bytes is None
                                   else float(bcfg.kv_budget_bytes)),
                        )
                concurrency_full = (
                    bool(queue) and kv_blocked_id is None
                    and bcfg.max_concurrency is not None
                    and len(inflight) >= bcfg.max_concurrency)
                if concurrency_full and self._decision_sinks:
                    head = queue.peek()
                    self._emit_decision(
                        now, head.request_id, head.tier.name,
                        "concurrency-deferred", step=len(self._steps),
                        quantity="n_inflight",
                        value=float(len(inflight)),
                        limit=float(bcfg.max_concurrency),
                    )
                if not inflight:
                    continue
                plan = plan_step(inflight, bcfg.max_batch_tokens,
                                 bcfg.prefill_priority, rotation=rotation)
                if not plan:
                    raise EngineError(
                        "step loop stalled: in-flight requests but an "
                        "empty step batch"
                    )
                step_index = len(self._steps)
                step_start = now
                if self._decision_sinks:
                    self._emit_step_decisions(plan, inflight, step_start,
                                              step_index, rotation,
                                              budget_limit)
                rotation += 1
                executed: List[StepItem] = []
                finished: List[Tuple[int, float, ChunkContinuation]] = []
                for state, kind, tokens, cost_s, index in plan:
                    start = now
                    now += cost_s
                    if kind == "prefill":
                        state.cursor += 1
                        if tr.enabled:
                            chunk = state.chunk_offset + index
                            tr.span(
                                f"chunk {chunk}", proc="service",
                                thread=request_track(state.request_id),
                                start_s=start, end_s=now, cat="prefill",
                                chunk=chunk, tokens=tokens,
                                step=step_index,
                            )
                        if state.cursor == state.n_chunks:
                            state.prefill_end_s = now
                            state.first_token_s = now
                            if not state.output_tokens:
                                finished.append(
                                    (state.request_id, now, state))
                    else:
                        state.decoded += 1
                        if tr.enabled:
                            tr.span(
                                f"token {index}", proc="service",
                                thread=request_track(state.request_id),
                                start_s=start, end_s=now, cat="decode",
                                step=step_index,
                            )
                        if state.decoded == state.output_tokens:
                            finished.append((state.request_id, now, state))
                    executed.append(StepItem(state.request_id, kind, tokens,
                                             cost_s, index, start, now))
                record = StepRecord(
                    index=step_index, start_s=step_start, end_s=now,
                    items=tuple(executed), n_inflight=len(inflight),
                    kv_reserved_bytes=kv_reserved,
                    queued_ids=queue.ids(),
                    queue_depths=queue.tier_depths(),
                    kv_blocked_id=kv_blocked_id,
                    concurrency_full=concurrency_full,
                    budget_tokens=bcfg.max_batch_tokens,
                    kv_budget_bytes=bcfg.kv_budget_bytes,
                )
                self._steps.append(record)
                for sink in self._step_sinks:
                    sink(record)
                if finished:
                    finished.sort()
                    done_ids = {rid for rid, _, _ in finished}
                    inflight = [s for s in inflight
                                if s.request_id not in done_ids]
                    for rid, finish_s, state in finished:
                        kv_reserved -= state.kv_reserved_bytes
                        new_records.append(self._finalize_batched(
                            engine, model_name, state,
                            open_reqs.pop(rid), finish_s))
            self._clocks[model_name] = now
        self._pending.clear()
        new_records.sort(key=lambda r: r.request_id)
        self._requests.extend(new_records)
        for record in new_records:
            self._observe(record)
        return new_records

    def _emit_step_decisions(self, plan: List[PlannedItem],
                             inflight: List[ChunkContinuation],
                             t_s: float, step: int, rotation: int,
                             budget_limit: Optional[float]) -> None:
        """The decisions of one planned step: one per scheduled item,
        then one per in-flight request the plan skipped, in start order.

        A step that advances every in-flight request skips nobody, so
        the skip sweep runs only on steps where the budget left some
        request out.
        """
        touched = set()
        for state, kind, tokens, _cost_s, index in plan:
            touched.add(state.request_id)
            if kind == "prefill":
                self._emit_decision(
                    t_s, state.request_id, state.tier_name,
                    "chunk-scheduled", step=step, quantity="tokens",
                    value=float(tokens), limit=budget_limit)
            else:
                self._emit_decision(
                    t_s, state.request_id, state.tier_name,
                    "decode-scheduled", step=step, quantity="token_index",
                    value=float(index))
        if len(touched) == len(inflight):
            return
        for state in inflight:
            if state.request_id in touched:
                continue
            if state.cursor < state.n_chunks:
                self._emit_decision(
                    t_s, state.request_id, state.tier_name,
                    "budget-exhausted", step=step,
                    quantity="next_chunk_tokens",
                    value=float(state.chunk_lens[state.cursor]),
                    limit=budget_limit)
            elif state.decoded < state.output_tokens:
                self._emit_decision(
                    t_s, state.request_id, state.tier_name,
                    "decode-rotated-out", step=step, quantity="rotation",
                    value=float(rotation), limit=budget_limit)

    # -- reporting ----------------------------------------------------------------

    @property
    def requests(self) -> List[ServedRequest]:
        return list(self._requests)

    def stats(self) -> ServiceStats:
        """Legacy aggregate view over *completed* requests."""
        if not self._requests:
            raise EngineError("no requests served yet")
        done = [r for r in self._requests if r.status == "completed"]
        if not done:
            raise EngineError("no requests completed yet")
        turnarounds = np.array([r.turnaround_s for r in done])
        queueing = np.array([r.queueing_s for r in done])
        span = (max(r.finish_s for r in self._requests)
                - min(r.arrival_s for r in self._requests))
        return ServiceStats(
            n_requests=len(done),
            preparation_s=self.preparation_s(),
            mean_turnaround_s=float(turnarounds.mean()),
            p95_turnaround_s=float(np.percentile(turnarounds, 95)),
            mean_queueing_s=float(queueing.mean()),
            total_energy_j=sum(r.report.energy_j for r in done),
            throughput_rps=(len(done) / span if span > 0
                            else float("inf")),
        )

    def metrics(self) -> ServiceMetrics:
        """Per-tier service metrics over everything served so far."""
        return summarize_service(self._requests)
