"""LLM-as-a-System-Service load analysis (§3.1's deployment setting).

The paper positions llm.npu inside an OS-level LLM service.  This driver
sweeps request inter-arrival gaps for a workload and reports the queueing
behaviour — the practical payoff of a 10x-faster prefill is that the
service sustains a 10x-higher request rate before queueing explodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    BatchConfig,
    EngineConfig,
    LlmService,
    TierPolicy,
    goodput_rps,
)
from repro.eval.report import Table
from repro.hw.sim import FaultSpec
from repro.workloads.datasets import (
    WORKLOADS,
    WorkloadSample,
    sample_workload,
)


def service_load(
    model: str = "Qwen1.5-1.8B",
    device: str = "Redmi K70 Pro",
    workload: str = "ui_automation",
    inter_arrival_s: Sequence[float] = (8.0, 4.0, 2.0, 1.0, 0.5),
    n_requests: int = 12,
    seed: int = 0,
) -> Table:
    """Queueing behaviour of the shared llm.npu service under load."""
    from repro.obs import breakdown_requests, tier_component_means
    spec = WORKLOADS[workload]
    table = Table(
        title=f"LLM service load — {workload} on {model} ({device})",
        columns=["inter-arrival s", "mean turnaround s", "p95 turnaround s",
                 "mean queueing s", "throughput req/s",
                 "mean prefill s", "mean decode s"],
    )
    for gap in inter_arrival_s:
        service = LlmService(device, EngineConfig())
        samples = sample_workload(spec, n_requests, seed=seed)
        service.submit_workload(model, samples, inter_arrival_s=gap)
        stats = service.stats()
        means = tier_component_means(
            breakdown_requests(service.requests))["interactive"]
        table.add_row(gap, stats.mean_turnaround_s, stats.p95_turnaround_s,
                      stats.mean_queueing_s, stats.throughput_rps,
                      means["prefill_s"], means["decode_s"])
    table.add_note("queueing stays near zero while the inter-arrival gap "
                   "exceeds the per-request service time, then grows "
                   "without bound — the service's capacity knee; the "
                   "prefill/decode split stays constant (queueing, not "
                   "service time, is what load inflates)")
    return table


def service_engine_comparison(
    device: str = "Redmi K70 Pro",
    workload: str = "ui_automation",
    inter_arrival_s: float = 2.0,
    n_requests: int = 10,
    seed: int = 0,
) -> Table:
    """The same arrival stream served by llm.npu vs a CPU-engine service.

    Shows the deployment-level consequence of prefill speed: at an
    arrival rate llm.npu absorbs easily, a llama.cpp-backed service
    drowns in queueing.
    """
    from repro.baselines import LlamaCppEngine
    from repro.workloads.datasets import WorkloadSample

    spec = WORKLOADS[workload]
    samples = sample_workload(spec, n_requests, seed=seed)
    table = Table(
        title=f"Service comparison — {workload}, one request every "
              f"{inter_arrival_s:g}s",
        columns=["engine", "mean turnaround s", "p95 turnaround s",
                 "mean queueing s"],
    )

    service = LlmService(device, EngineConfig())
    service.submit_workload("Qwen1.5-1.8B", samples,
                            inter_arrival_s=inter_arrival_s)
    stats = service.stats()
    table.add_row("llm.npu service", stats.mean_turnaround_s,
                  stats.p95_turnaround_s, stats.mean_queueing_s)

    # A baseline-backed service: same FIFO clock arithmetic, llama.cpp
    # engine latencies.
    engine = LlamaCppEngine("Qwen1.5-1.8B", device)
    clock = 0.0
    turnarounds, queueing = [], []
    for i, sample in enumerate(samples):
        arrival = i * inter_arrival_s
        start = max(clock, arrival)
        e2e = engine.infer(sample.prompt_tokens,
                           sample.output_tokens).e2e_latency_s
        clock = start + e2e
        turnarounds.append(clock - arrival)
        queueing.append(start - arrival)
    table.add_row("llama.cpp service", float(np.mean(turnarounds)),
                  float(np.percentile(turnarounds, 95)),
                  float(np.mean(queueing)))
    return table


# -- multi-tenant scheduling (tiers, admission, faults) -----------------------

#: Tier policies used by the two-tier experiments: a tight interactive
#: SLO (the user is watching) and a background tier that prefers
#: shedding to unbounded queueing.
EXPERIMENT_TIERS: Dict[str, TierPolicy] = {
    "interactive": TierPolicy(
        name="interactive", priority=10,
        slo_queueing_s=4.0, timeout_s=30.0,
        max_retries=2, retry_backoff_s=0.05,
    ),
    "background": TierPolicy(
        name="background", priority=0,
        slo_queueing_s=15.0, timeout_s=120.0,
        max_retries=3, retry_backoff_s=0.2,
    ),
}


def two_tier_arrivals(
    n_interactive: int = 12,
    n_background: int = 10,
    seed: int = 42,
    interactive_gap_s: Tuple[float, float] = (0.8, 1.6),
    background_gap_s: float = 0.6,
    background_start_s: float = 0.5,
    background_workload: str = "email_reply",
) -> List[Tuple[str, WorkloadSample, float]]:
    """A seeded two-tier overload stream: ``(tier, sample, arrival_s)``.

    Interactive requests are short UI-automation prompts arriving at a
    jittered ~1.2 s cadence; background requests are long
    ``background_workload`` prompts (email replies by default) arriving
    in an early burst — together they oversubscribe the engine, which
    is the regime where scheduling policy matters.
    """
    rng = np.random.default_rng(seed)
    interactive = sample_workload(WORKLOADS["ui_automation"],
                                  n_interactive, seed=seed + 1)
    background = sample_workload(WORKLOADS[background_workload],
                                 n_background, seed=seed + 2)
    stream: List[Tuple[str, WorkloadSample, float]] = []
    t = 0.0
    lo, hi = interactive_gap_s
    for sample in interactive:
        t += float(rng.uniform(lo, hi))
        stream.append(("interactive", sample, t))
    for i, sample in enumerate(background):
        stream.append(("background", sample,
                       background_start_s + i * background_gap_s))
    return stream


def _run_two_tier(
    scheduler: str,
    admission: bool,
    model: str,
    device: str,
    stream: List[Tuple[str, WorkloadSample, float]],
    fault_spec: Optional[FaultSpec] = None,
    tracer=None,
    metrics=None,
    monitor=None,
    batching: Optional[BatchConfig] = None,
    steplog=None,
    step_observer=None,
) -> LlmService:
    service = LlmService(device, EngineConfig(), scheduler=scheduler,
                         admission=admission, fault_spec=fault_spec,
                         tiers=EXPERIMENT_TIERS, tracer=tracer,
                         metrics=metrics, batching=batching)
    if monitor is not None:
        monitor.attach(service)
    if steplog is not None:
        steplog.attach(service)
    if step_observer is not None:
        service.add_step_observer(step_observer)
    for tier, sample, arrival in stream:
        service.enqueue(model, sample.prompt_tokens, sample.output_tokens,
                        arrival_s=arrival, tier=tier)
    service.run()
    return service


def service_tier_comparison(
    model: str = "Qwen1.5-1.8B",
    device: str = "Redmi K70 Pro",
    n_interactive: int = 12,
    n_background: int = 10,
    seed: int = 42,
) -> Table:
    """Tiered scheduling + admission control vs. the FIFO baseline.

    The same seeded two-tier overload stream is played through (a) the
    seed's single FIFO queue with no admission control and (b) the
    multi-tenant scheduler.  The scheduler keeps the interactive tier's
    p95 latency near its service time by letting interactive requests
    jump the queue, and sheds background load whose projected wait
    exceeds the background SLO.
    """
    stream = two_tier_arrivals(n_interactive, n_background, seed=seed)
    table = Table(
        title=f"Two-tier service scheduling — {model} ({device}), "
              f"{n_interactive} interactive + {n_background} background",
        columns=["scheduler", "int p50 s", "int p95 s", "bg p95 s",
                 "int rejected", "bg rejected", "int timeout",
                 "npu util"],
    )
    for label, scheduler, admission in (
            ("fifo (seed)", "fifo", False),
            ("priority+admission", "priority", True)):
        service = _run_two_tier(scheduler, admission, model, device, stream)
        m = service.metrics()
        interactive = m.tier("interactive")
        background = m.tier("background")
        table.add_row(label,
                      interactive.p50_turnaround_s,
                      interactive.p95_turnaround_s,
                      background.p95_turnaround_s,
                      interactive.n_rejected,
                      background.n_rejected,
                      interactive.n_timeout,
                      m.npu_utilization)
    table.add_note("the interactive tier's p95 collapses to ~its service "
                   "time under priority scheduling, paid for by shed "
                   "background load (rejections) — the FIFO baseline "
                   "makes the foreground wait behind the batch")
    return table


def service_fault_recovery(
    model: str = "Qwen1.5-1.8B",
    device: str = "Redmi K70 Pro",
    transient_rates: Sequence[float] = (0.0, 0.1, 0.3),
    n_requests: int = 10,
    seed: int = 0,
) -> Table:
    """Retry-with-backoff under increasing transient fault pressure."""
    table = Table(
        title=f"Service fault recovery — {model} ({device})",
        columns=["transient rate", "completed", "failed", "retries",
                 "mean turnaround s"],
    )
    for rate in transient_rates:
        service = LlmService(
            device, EngineConfig(), scheduler="priority", admission=False,
            fault_spec=FaultSpec(transient_rate=rate, seed=seed + 100),
            tiers=EXPERIMENT_TIERS,
        )
        samples = sample_workload(WORKLOADS["ui_automation"], n_requests,
                                  seed=seed)
        for i, sample in enumerate(samples):
            service.enqueue(model, sample.prompt_tokens,
                            sample.output_tokens, arrival_s=2.0 * i,
                            tier="interactive")
        service.run()
        m = service.metrics()
        done = [r for r in service.requests if r.status == "completed"]
        mean_turnaround = (sum(r.turnaround_s for r in done) / len(done)
                           if done else 0.0)
        table.add_row(rate, m.n_completed, m.n_failed, m.n_retries,
                      mean_turnaround)
    table.add_note("transient faults cost bounded retries (backoff + the "
                   "dead attempt's partial execution), not failed "
                   "requests, until the per-tier retry cap is hit")
    return table


def service_golden_records(seed: int = 42, tracer=None, metrics=None,
                           monitor=None,
                           batching: Optional[BatchConfig] = None,
                           steplog=None):
    """The golden regression scenario: two-tier overload with faults.

    Returns the served :class:`~repro.core.ServedRequest` records of the
    priority+admission scheduler over the seeded two-tier stream with a
    seeded transient-fault injector — every field is a pure function of
    ``seed``, which makes this the determinism tripwire for future
    scheduler changes.  Pass a :class:`~repro.obs.Tracer` /
    :class:`~repro.obs.MetricsRegistry` / :class:`~repro.obs.SloMonitor`
    to observe the run; the records are identical either way (the no-op
    guarantee the regression tests pin down).  ``batching`` attaches a
    :class:`~repro.core.BatchConfig`, which serves the stream on the
    step loop.
    """
    stream = two_tier_arrivals(seed=seed)
    service = _run_two_tier(
        "priority", True, "Qwen1.5-1.8B", "Redmi K70 Pro", stream,
        fault_spec=FaultSpec(transient_rate=0.1, seed=7),
        tracer=tracer, metrics=metrics, monitor=monitor,
        batching=batching, steplog=steplog,
    )
    return service


def service_breakdown(seed: int = 42, trace_out: Optional[str] = None,
                      metrics_out: Optional[str] = None) -> Table:
    """Per-tier latency breakdown of the golden two-tier scenario.

    Decomposes every served request's turnaround into queue / retry /
    prefill / decode (validated to sum to the turnaround within 1e-9 s)
    and reports per-tier means — the component view behind the
    percentile columns of :func:`service_tier_comparison`.

    ``trace_out`` / ``metrics_out`` additionally export the run's
    unified Perfetto timeline and metrics snapshot (the observability
    side of ``llmnpu run service-breakdown --trace-out ...``).
    """
    from repro.obs import MetricsRegistry, Tracer, breakdown_table
    from repro.obs import export_service_trace, write_text
    tracer = Tracer() if trace_out else None
    metrics = MetricsRegistry() if metrics_out else None
    service = service_golden_records(seed=seed, tracer=tracer,
                                     metrics=metrics)
    if trace_out:
        export_service_trace(service, trace_out)
    if metrics_out:
        write_text(metrics_out, service.metrics_registry.to_json())
    return breakdown_table(
        service.requests,
        title=f"Service latency breakdown — golden two-tier scenario "
              f"(seed={seed})",
    )


def service_golden_trace(seed: int = 42) -> str:
    """Canonical unified-trace JSON of the golden scenario (one string).

    Runs :func:`service_golden_records` with a tracer attached and
    serializes the merged service+hardware timeline exactly as
    :func:`repro.obs.export_service_trace` writes it.  Byte-identical
    across processes for equal seeds; ``scripts/check_determinism.sh``
    diffs two independent evaluations.
    """
    import json

    from repro.obs import (
        Tracer,
        service_timeline,
        to_chrome_trace,
        validate_timeline,
    )
    service = service_golden_records(seed=seed, tracer=Tracer())
    events = to_chrome_trace(service_timeline(service))
    validate_timeline(events)
    return json.dumps(events, sort_keys=True)


def service_golden_snapshot(seed: int = 42, steplog=None) -> str:
    """Canonical full-precision text dump of the golden scenario.

    ``scripts/check_determinism.sh`` runs this twice and diffs the
    output byte-for-byte — and once more with a
    :class:`~repro.obs.StepLogger` attached via ``steplog``, which must
    not change a byte (observation is a no-op).
    """
    service = service_golden_records(seed=seed, steplog=steplog)
    lines = []
    for r in service.requests:
        lines.append(
            f"{r.request_id} {r.tier} {r.status} retries={r.retries} "
            f"arrival={r.arrival_s!r} start={r.start_s!r} "
            f"finish={r.finish_s!r}"
        )
    m = service.metrics()
    lines.append(f"completed={m.n_completed} rejected={m.n_rejected} "
                 f"timeout={m.n_timeout} failed={m.n_failed} "
                 f"retries={m.n_retries}")
    lines.append(f"span={m.span_s!r} npu_busy={m.npu_busy_s!r} "
                 f"energy={m.total_energy_j!r}")
    return "\n".join(lines)


# -- continuous batching (step-loop scheduler) --------------------------------

#: Step-loop configuration the batching experiment sweeps: budget of
#: four 256-token chunks per step (so ``prefill_priority`` interpolates
#: 0-3 chunks alongside the standing decode population), eight requests
#: resident at once — continuous batching bounds residency by budget
#: and KV, not a per-request slot count.
BATCHING_BATCH_TOKENS = 1024
BATCHING_CONCURRENCY = 8

#: The batching experiment's background tier: decode-heavy chat
#: summaries (35-57 output tokens, ~5 s of decode at on-device rates).
#: Per-request dispatch head-of-line-blocks interactive arrivals behind
#: those decode tails; chunk-granularity interleaving does not — the
#: regime iteration-level scheduling exists for.
BATCHING_BACKGROUND_WORKLOAD = "chat_summary"

#: TTFT SLO bounds (arrival to first token) used for the goodput
#: columns — aligned with the tiers' admission expectations.
BATCHING_TTFT_SLO: Dict[str, float] = {
    "interactive": 4.0,
    "background": 30.0,
}


def batching_arrivals(seed: int = 42) -> List[Tuple[str, WorkloadSample,
                                                    float]]:
    """The batching experiment's stream: the golden two-tier generator
    with the background tier drawing decode-heavy chat summaries."""
    return two_tier_arrivals(
        seed=seed, background_workload=BATCHING_BACKGROUND_WORKLOAD)


def batched_golden_service(seed: int = 42,
                           prefill_priority: float = 0.5,
                           max_batch_tokens: int = BATCHING_BATCH_TOKENS,
                           max_concurrency: int = BATCHING_CONCURRENCY,
                           tracer=None, steplog=None) -> LlmService:
    """The golden two-tier scenario served by the step loop.

    Same tiers, fault seed and admission as
    :func:`service_golden_records`, on the decode-heavy
    :func:`batching_arrivals` stream; dispatch granularity and the
    background workload are what change.  Deterministic in all
    arguments — the ``batching-smoke`` CI job byte-diffs
    :func:`service_batching_golden_snapshot` built on this.
    """
    stream = batching_arrivals(seed=seed)
    return _run_two_tier(
        "priority", True, "Qwen1.5-1.8B", "Redmi K70 Pro", stream,
        fault_spec=FaultSpec(transient_rate=0.1, seed=7),
        tracer=tracer, steplog=steplog,
        batching=BatchConfig(max_batch_tokens=max_batch_tokens,
                             max_concurrency=max_concurrency,
                             prefill_priority=prefill_priority),
    )


def service_batching_golden_snapshot(seed: int = 42,
                                     prefill_priority: float = 0.5,
                                     steplog=None) -> str:
    """Full-precision text dump of one step-loop run (CI byte-diffs it).

    Covers the per-request timings *and* a digest of every executed
    step (item counts, token counts, KV reservation), so any
    nondeterminism in batch assembly — not just in the final records —
    trips the diff.  ``scripts/check_determinism.sh`` also runs it with
    a :class:`~repro.obs.StepLogger` attached via ``steplog``, which
    must not change a byte (observation is a no-op).
    """
    service = batched_golden_service(seed=seed,
                                     prefill_priority=prefill_priority,
                                     steplog=steplog)
    lines = []
    for r in service.requests:
        lines.append(
            f"{r.request_id} {r.tier} {r.status} retries={r.retries} "
            f"arrival={r.arrival_s!r} start={r.start_s!r} "
            f"finish={r.finish_s!r} ttft={r.ttft_s!r} itl={r.itl_s!r}"
        )
    for s in service.steps:
        lines.append(
            f"step {s.index} start={s.start_s!r} end={s.end_s!r} "
            f"items={len(s.items)} prefill={s.prefill_tokens} "
            f"decode={s.decode_tokens} inflight={s.n_inflight} "
            f"kv={s.kv_reserved_bytes}"
        )
    recs = service.requests
    lines.append(f"goodput={goodput_rps(recs, BATCHING_TTFT_SLO)!r}")
    return "\n".join(lines)


def service_batching(
    model: str = "Qwen1.5-1.8B",
    device: str = "Redmi K70 Pro",
    seed: int = 42,
    prefill_priorities: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    max_batch_tokens: int = BATCHING_BATCH_TOKENS,
    max_concurrency: int = BATCHING_CONCURRENCY,
) -> Table:
    """Continuous batching vs. per-request dispatch, sweeping the knob.

    Plays the decode-heavy two-tier overload stream
    (:func:`batching_arrivals`) through the per-request scheduler
    (baseline row) and the step loop at several ``prefill_priority``
    settings.  The two claims the table carries (and the benchmark
    asserts): the step loop's goodput beats the baseline's, and
    raising ``prefill_priority`` lowers TTFT while raising ITL — the
    iteration-level trade-off the knob exists for.
    """
    stream = batching_arrivals(seed=seed)
    fault = FaultSpec(transient_rate=0.1, seed=7)
    table = Table(
        title=f"Continuous batching — {model} ({device}), decode-heavy "
              f"two-tier stream, batch budget {max_batch_tokens} tok × "
              f"{max_concurrency} requests",
        columns=["mode", "completed", "goodput req/s", "mean ttft s",
                 "mean itl s", "int ttft max s", "bg ttft mean s"],
    )

    def add_row(label: str, service: LlmService) -> None:
        recs = service.requests
        m = service.metrics()
        done = [r for r in recs if r.status == "completed"]
        ttfts = [r.ttft_s for r in done if r.ttft_s is not None]
        itls = [r.itl_s for r in done if r.itl_s is not None]
        int_ttfts = [r.ttft_s for r in done
                     if r.tier == "interactive" and r.ttft_s is not None]
        bg_ttfts = [r.ttft_s for r in done
                    if r.tier == "background" and r.ttft_s is not None]
        table.add_row(
            label,
            m.n_completed,
            goodput_rps(recs, BATCHING_TTFT_SLO),
            float(np.mean(ttfts)) if ttfts else 0.0,
            float(np.mean(itls)) if itls else 0.0,
            float(np.max(int_ttfts)) if int_ttfts else 0.0,
            float(np.mean(bg_ttfts)) if bg_ttfts else 0.0,
        )

    add_row("per-request (baseline)",
            _run_two_tier("priority", True, model, device, stream,
                          fault_spec=fault))
    for p in prefill_priorities:
        service = _run_two_tier(
            "priority", True, model, device, stream, fault_spec=fault,
            batching=BatchConfig(max_batch_tokens=max_batch_tokens,
                                 max_concurrency=max_concurrency,
                                 prefill_priority=p))
        add_row(f"step loop p={p:g}", service)
    table.add_note("goodput counts completed requests whose TTFT met "
                   "the tier bound (interactive 4 s, background 30 s) "
                   "per second of span; prefill_priority trades TTFT "
                   "(lower at 1.0) against ITL (lower at 0.0) — the "
                   "iteration-level scheduler's knob")
    return table


def scheduler_occupancy(
        seed: int = 42,
        prefill_priorities: Sequence[float] = (0.0, 0.5, 1.0)) -> Table:
    """Batch occupancy and decision mix across the knob's extremes.

    One step-logged golden batched run per ``prefill_priority``:
    mean/p95 batch-token occupancy (fraction of the per-step token
    budget actually filled) plus the decision-mix counts that explain
    it — chunks and decode tokens scheduled, prefills the budget cut
    off, decoders rotated out.  The numbers feed
    ``BENCH_scheduler_occupancy.json`` under the bench-compare gate.
    """
    from repro.obs import QuantileSketch, StepLogger, decision_mix, \
        occupancy_summary
    table = Table(
        title=f"Scheduler occupancy — golden batched stream (seed={seed}, "
              f"budget {BATCHING_BATCH_TOKENS} tok × "
              f"{BATCHING_CONCURRENCY} requests)",
        columns=["knob p", "steps", "mean batch tok", "mean batch util",
                 "p95 batch util", "chunk-sched", "decode-sched",
                 "budget skips", "rotated out"],
    )
    for p in prefill_priorities:
        logger = StepLogger(source=f"occupancy-p{p:g}")
        batched_golden_service(seed=seed, prefill_priority=p,
                               steplog=logger)
        occ = occupancy_summary(logger.steps)
        mix = decision_mix(logger.decisions)
        sketch = QuantileSketch()
        for s in logger.steps:
            if s.budget_utilization is not None:
                sketch.observe(s.budget_utilization)
        table.add_row(
            f"p={p:g}", int(occ["n_steps"]),
            occ["mean_batch_tokens"],
            occ.get("mean_budget_utilization"),
            sketch.percentile(95.0) if sketch.count else None,
            mix.get("chunk-scheduled", 0),
            mix.get("decode-scheduled", 0),
            mix.get("budget-exhausted", 0),
            mix.get("decode-rotated-out", 0),
        )
    table.add_note("batch util is batch_tokens / max_batch_tokens per "
                   "step; decode-leaning settings (p=0) spread prefill "
                   "over more, emptier steps and skip more chunks "
                   "(budget-exhausted), prefill-leaning settings (p=1) "
                   "pack the budget and finish in fewer steps")
    return table


def golden_steplog(seed: int = 42, batched: bool = False,
                   prefill_priority: float = 0.5):
    """A :class:`~repro.obs.StepLogger` over one golden run.

    ``batched=False`` replays the golden two-tier scenario on the
    legacy per-request path (steps empty, decisions + records only);
    ``batched=True`` replays the decode-heavy stream through the step
    loop, producing the full step/decision log.  Either way the logger
    is attached *before* the run, so the document is a pure function of
    the arguments.
    """
    from repro.obs import StepLogger
    logger = StepLogger(source=f"golden-{'batched' if batched else 'service'}"
                               f"-seed{seed}")
    if batched:
        batched_golden_service(seed=seed,
                               prefill_priority=prefill_priority,
                               steplog=logger)
    else:
        service_golden_records(seed=seed, steplog=logger)
    return logger


def golden_steplog_json(seed: int = 42, batched: bool = True,
                        prefill_priority: float = 0.5) -> str:
    """Canonical ``repro.steps/v1`` JSON of one golden run (one string).

    ``scripts/check_determinism.sh`` diffs two independent evaluations
    byte-for-byte; the batching-smoke CI job uploads it as an artifact.
    """
    return golden_steplog(seed=seed, batched=batched,
                          prefill_priority=prefill_priority).to_json()
