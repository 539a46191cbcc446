"""Critical-path and what-if experiment drivers.

Three experiments hang off the tentpole modules:

- ``critpath`` — per-request critical-path attribution over the golden
  two-tier service workload, rolled into the deterministic
  ``repro.critpath/v1`` artifact CI byte-diffs.
- ``dma-ablation`` — the calibrated :class:`~repro.hw.dma.DmaConfig`
  buffer-depth ladder (1, 2, 4, unbounded), with the what-if estimator's
  prediction cross-checked against each rebuilt engine's measured
  latency.
- ``stage-crossover`` — prompt length x float-processor placement sweep
  (ROADMAP item 3's input): measured CPU-vs-GPU coordination latency,
  the critical path's gating stage at each point, and the what-if
  estimator's calibrated prediction of the placement switch.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Tuple

from repro.core import EngineConfig, LlmNpuEngine
from repro.errors import EngineError
from repro.eval.report import Table
from repro.eval.service_eval import service_golden_records
from repro.hw.dma import DmaConfig
from repro.hw.soc import get_device
from repro.model.config import get_model_config
from repro.obs.critical_path import (
    critical_path,
    critpath_doc,
    request_critical_path,
)
from repro.obs.whatif import (
    ProcessorReassign,
    capture_engine_run,
    dma_overlap_perturbation,
    predict,
)


def service_critical_paths(seed: int = 42, batching=None):
    """Critical paths of every completed golden-workload request."""
    service = service_golden_records(seed=seed, batching=batching)
    decode_backend = service.config.decode_backend
    paths = []
    for record in service.requests:
        if record.status != "completed" or record.report is None:
            continue
        paths.append(request_critical_path(
            record, decode_backend=decode_backend))
    if not paths:
        raise EngineError("golden workload completed no requests")
    return paths, service


def golden_critpath_doc(seed: int = 42) -> dict:
    """The canonical ``repro.critpath/v1`` document of the golden run."""
    paths, _service = service_critical_paths(seed=seed)
    return critpath_doc(paths, source=f"golden service workload "
                                      f"seed={seed}")


def golden_critpath_json(seed: int = 42) -> str:
    """Deterministic JSON of :func:`golden_critpath_doc` — a pure
    function of ``seed``, so ``scripts/check_determinism.sh`` byte-diffs
    two independent evaluations and CI schema-checks the same bytes."""
    return json.dumps(golden_critpath_doc(seed=seed), indent=2,
                      sort_keys=True, allow_nan=False)


def critpath_stage_table(paths: Sequence,
                         title: Optional[str] = None) -> Table:
    """On-path time by stage tag, aggregated across requests."""
    by_tag = {}
    e2e = 0.0
    for path in paths:
        e2e += path.e2e_s
        for tag, seconds in path.by_tag().items():
            by_tag[tag] = by_tag.get(tag, 0.0) + seconds
    table = Table(
        title=title or (f"Critical-path attribution by stage "
                        f"({len(paths)} requests)"),
        columns=["stage", "on-path ms", "share of e2e %"],
    )
    for tag in sorted(by_tag, key=lambda t: -by_tag[t]):
        table.add_row(tag, by_tag[tag] * 1e3,
                      by_tag[tag] / e2e * 100 if e2e else 0.0)
    table.add_note("shares sum to 100%: on-path segments tile each "
                   "request's arrival-to-completion interval exactly "
                   "(validate_critical_path enforces 1e-9 s)")
    return table


def critpath_request_table(paths: Sequence,
                           title: Optional[str] = None) -> Table:
    """One row per request: who gated it, and by how much."""
    table = Table(
        title=title or "Per-request critical paths",
        columns=["request", "e2e ms", "on-path events", "top gating stage",
                 "top stage ms", "service share %"],
    )
    for path in paths:
        by_tag = path.by_tag()
        top = max(by_tag, key=lambda t: (by_tag[t], t))
        service_s = sum(s for t, s in by_tag.items()
                       if t in ("queued", "held"))
        table.add_row(
            path.source.replace("request ", ""), path.e2e_s * 1e3,
            len(path.segments), top, by_tag[top] * 1e3,
            service_s / path.e2e_s * 100 if path.e2e_s else 0.0,
        )
    table.add_note("'service share' is queueing + admission hold — latency "
                   "the scheduler, not the hardware, is responsible for")
    return table


def service_critpath(seed: int = 42,
                     critpath_out: Optional[str] = None) -> Tuple[Table, ...]:
    """The ``critpath`` experiment: critical-path attribution tables over
    the golden workload (optionally writing the ``repro.critpath/v1``
    artifact)."""
    paths, _service = service_critical_paths(seed=seed)
    tables = (
        critpath_stage_table(
            paths, title=f"Critical-path attribution by stage — golden "
                         f"service workload (seed={seed})"),
        critpath_request_table(paths),
    )
    if critpath_out:
        with open(critpath_out, "w", encoding="utf-8") as fh:
            fh.write(golden_critpath_json(seed=seed))
            fh.write("\n")
    return tables


# -- DMA ablation (satellite 1) ----------------------------------------------


def dma_ablation(
    model="Qwen1.5-1.8B",
    device="Redmi K70 Pro",
    prompt_len: int = 512,
    buffer_depths: Sequence[int] = (1, 2, 4),
) -> Table:
    """Calibrated DMA buffer-depth ablation, cross-checked by what-if.

    For each depth the engine is *actually rebuilt* with the explicit
    :class:`~repro.hw.dma.DmaConfig` streaming model and re-measured;
    the what-if estimator predicts the same point by simulating the
    baseline DAG with the id-matched duration deltas.  The two columns
    agreeing (|error| well under a nanosecond) is the calibration
    check — the estimator earns the right to answer questions we did
    not re-simulate.
    """
    cfg = get_model_config(model) if isinstance(model, str) else model
    dev = get_device(device) if isinstance(device, str) else device
    engine = LlmNpuEngine(cfg, dev)
    run = capture_engine_run(engine, prompt_len)
    baseline = predict(run, [])
    ideal_ms = engine.prefill(prompt_len).latency_s * 1e3
    table = Table(
        title=f"DMA ablation — {cfg.name}, prompt={prompt_len}, "
              f"measured vs what-if",
        columns=["weight streaming", "measured ms", "what-if ms",
                 "|error| ns", "vs ideal"],
    )
    table.add_row("unbounded buffers (legacy 'max' combine)", ideal_ms,
                  baseline.baseline.ttft_s * 1e3,
                  abs(ideal_ms - baseline.baseline.ttft_s * 1e3) * 1e6,
                  "1.00x")
    for depth in buffer_depths:
        pert, clone = dma_overlap_perturbation(
            engine, prompt_len, DmaConfig(buffers=depth))
        measured_ms = clone.prefill(prompt_len).latency_s * 1e3
        predicted_ms = predict(run, [pert]).predicted.ttft_s * 1e3
        label = {1: "serial (no overlap)", 2: "double-buffered",
                 4: "quad-buffered"}.get(depth, f"{depth}-deep pipeline")
        table.add_row(label, measured_ms, predicted_ms,
                      abs(measured_ms - predicted_ms) * 1e6,
                      f"{measured_ms / ideal_ms:.2f}x")
    table.add_note("double buffering recovers nearly all of the ideal "
                   "overlap; the what-if column replays the baseline DAG "
                   "with per-task DMA duration deltas instead of "
                   "rebuilding the engine")
    return table


# -- stage crossover (ROADMAP item 3) -----------------------------------------


def _placement_perturbations(base_run, target_run) -> List[ProcessorReassign]:
    """Calibrated reassignments turning ``base_run``'s placement into
    ``target_run``'s: one per stage tag whose processor moved, scaled by
    the measured duration ratio of that tag."""
    base_by_id = {t.task_id: t for t in base_run.tasks}
    moved = {}
    for t in target_run.tasks:
        old = base_by_id.get(t.task_id)
        if old is None or t.proc == old.proc:
            continue
        total_old, total_new, proc = moved.get(t.tag, (0.0, 0.0, t.proc))
        moved[t.tag] = (total_old + old.duration_s,
                        total_new + t.duration_s, t.proc)
    return [
        ProcessorReassign(tag=tag, proc=proc,
                          duration_scale=new / old if old else 1.0)
        for tag, (old, new, proc) in sorted(moved.items())
    ]


def stage_crossover(
    model="Qwen1.5-1.8B",
    device="Redmi K70 Pro",
    prompt_lens: Sequence[int] = (32, 64, 128, 256, 512, 1024),
    placements: Sequence[str] = ("cpu", "gpu"),
) -> Table:
    """Prompt length x float-processor placement sweep (ROADMAP item 3).

    At each prompt length, both placements are measured and the critical
    path names the gating stage; the what-if estimator then predicts the
    placement switch from the *baseline* run alone via calibrated
    per-stage reassignments.  Where the winner flips is the crossover
    the hybrid dispatcher should encode.
    """
    cfg = get_model_config(model) if isinstance(model, str) else model
    dev = get_device(device) if isinstance(device, str) else device
    base_proc, alt_proc = placements[0], placements[1]
    engines = {
        proc: LlmNpuEngine(cfg, dev, EngineConfig(float_backend=proc))
        for proc in placements
    }
    table = Table(
        title=f"Stage crossover — {cfg.name}, float placement "
              f"{base_proc} vs {alt_proc}",
        columns=["prompt", f"{base_proc} ms", f"{alt_proc} ms", "winner",
                 f"what-if {alt_proc} ms", "pred err %", "gating stage"],
    )
    for prompt in prompt_lens:
        reports = {proc: engines[proc].prefill(prompt)
                   for proc in placements}
        base_ms = reports[base_proc].latency_s * 1e3
        alt_ms = reports[alt_proc].latency_s * 1e3
        base_run = capture_engine_run(engines[base_proc], prompt)
        alt_run = capture_engine_run(engines[alt_proc], prompt)
        perts = _placement_perturbations(base_run, alt_run)
        predicted_ms = predict(base_run, perts).predicted.ttft_s * 1e3
        path = critical_path(reports[base_proc].trace)
        by_tag = path.by_tag()
        gating = max(by_tag, key=lambda t: (by_tag[t], t))
        # stringly-typed sweep key: the bench artifact labels rows by
        # their string cells, and (winner, gating stage) alone repeats
        table.add_row(
            str(prompt), base_ms, alt_ms,
            base_proc if base_ms <= alt_ms else alt_proc,
            predicted_ms,
            abs(predicted_ms - alt_ms) / alt_ms * 100 if alt_ms else 0.0,
            gating,
        )
    table.add_note("'what-if' predicts the placement switch from the "
                   "baseline DAG with per-stage calibrated reassignments "
                   "— no rebuild; small errors come from per-chunk "
                   "duration variation within a stage tag")
    return table
