"""Counterfactual latency estimation over captured task DAGs.

The critical path (:mod:`repro.obs.critical_path`) says which tasks
gated a request; this module answers the next question — *what would
have happened* if an operator ran 2x faster, a stage moved to another
processor, or DMA/compute overlap were enabled.  It captures the exact
task DAG an engine would schedule (prefill subgraphs, shadow and sync
tasks, plus a synthetic decode chain gated on the prefill sinks),
applies typed perturbations, and simulates the perturbed DAG with
:class:`~repro.hw.sim.Simulator` — the event loop the engine itself
runs.

Ground truth comes from :class:`~repro.hw.sim.ReferenceSimulator`, the
simulator's original per-event loop kept verbatim as an executable
specification: :func:`resimulate` runs the perturbed DAG through it.
Because the two are separate implementations, checking
:func:`predict` against :func:`resimulate` is a meaningful check, and
the tests pin agreement within 1e-9 s on golden workloads for all three
perturbation classes (operator speedup, processor reassignment, DMA
overlap) and every scheduling policy.  On simulated hardware the
re-simulation is ground truth — a luxury profilers of physical devices
never have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Sequence, Tuple

from repro.errors import ReproError
from repro.hw.sim import ReferenceSimulator, Simulator, Task
from repro.hw.trace import Trace

#: Maximum tolerated |prediction - re-simulation| the tests enforce.
WHATIF_TOL_S = 1e-9


class WhatIfError(ReproError):
    """Capture, perturbation, or simulation failure."""


def _tag_matches(task_tag: str, pattern: str) -> bool:
    """A perturbation tag matches exactly or on a dotted prefix, so
    ``sg1`` also covers ``sg1.float`` but not ``sg10``."""
    return task_tag == pattern or task_tag.startswith(pattern + ".")


@dataclass(frozen=True)
class OperatorSpeedup:
    """"Operator X became ``factor`` times faster" (tag-matched)."""

    tag: str
    factor: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise WhatIfError(f"speedup factor must be finite and "
                              f"positive, got {self.factor!r}")

    @property
    def label(self) -> str:
        return f"{self.tag} {self.factor:g}x faster"

    def apply(self, task: Task) -> Task:
        if not _tag_matches(task.tag, self.tag):
            return task
        return replace(task, duration_s=task.duration_s / self.factor)


@dataclass(frozen=True)
class ProcessorReassign:
    """"Stage X runs on processor P instead" (tag-matched).

    ``duration_scale`` rescales the matched durations for the new
    processor's speed (1.0 keeps them — a pure placement change).
    """

    tag: str
    proc: str
    duration_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.proc:
            raise WhatIfError("reassignment needs a target processor")
        if not (math.isfinite(self.duration_scale)
                and self.duration_scale > 0):
            raise WhatIfError(f"duration_scale must be finite and "
                              f"positive, got {self.duration_scale!r}")

    @property
    def label(self) -> str:
        scale = ("" if self.duration_scale == 1.0
                 else f" at {self.duration_scale:g}x duration")
        return f"{self.tag} -> {self.proc}{scale}"

    def apply(self, task: Task) -> Task:
        if not _tag_matches(task.tag, self.tag):
            return task
        return replace(task, proc=self.proc,
                       duration_s=task.duration_s * self.duration_scale)


@dataclass(frozen=True)
class DmaOverlap:
    """Per-task durations from a DMA-rebuilt engine (id-matched).

    Built by :func:`dma_overlap_perturbation`: the task graph's ids and
    dependencies are a pure function of the chunk plan shapes, so a
    :class:`~repro.hw.dma.DmaConfig` rebuild changes only subgraph
    latencies — captured here as an id -> new-duration mapping.
    """

    durations: Dict[str, float] = field(default_factory=dict)
    name: str = "dma-overlap"

    @property
    def label(self) -> str:
        return f"{self.name} ({len(self.durations)} tasks)"

    def apply(self, task: Task) -> Task:
        new = self.durations.get(task.task_id)
        if new is None:
            return task
        return replace(task, duration_s=new)


@dataclass(frozen=True)
class CapturedRun:
    """The exact DAG one engine inference would schedule.

    ``processors`` are the ones the engine's simulator declares, in
    dispatch order; ``device_processors`` are all the device has, the
    targets a reassignment may pick.
    """

    source: str
    processors: Tuple[str, ...]
    device_processors: Tuple[str, ...]
    policy: str
    tasks: Tuple[Task, ...]
    prefill_ids: frozenset
    extra_latency_s: float
    output_tokens: int
    decode_proc: str


@dataclass(frozen=True)
class WhatIfOutcome:
    """Predicted (or re-simulated) latency figures of one scenario."""

    ttft_s: float
    itl_s: float
    e2e_s: float

    def to_dict(self) -> dict:
        return {"ttft_s": self.ttft_s, "itl_s": self.itl_s,
                "e2e_s": self.e2e_s}


@dataclass(frozen=True)
class WhatIfReport:
    """Baseline vs counterfactual, with the deltas that matter."""

    source: str
    perturbations: Tuple[str, ...]
    baseline: WhatIfOutcome
    predicted: WhatIfOutcome

    @property
    def ttft_delta_s(self) -> float:
        return self.predicted.ttft_s - self.baseline.ttft_s

    @property
    def itl_delta_s(self) -> float:
        return self.predicted.itl_s - self.baseline.itl_s

    @property
    def e2e_delta_s(self) -> float:
        return self.predicted.e2e_s - self.baseline.e2e_s

    @property
    def ttft_speedup(self) -> float:
        if self.predicted.ttft_s <= 0:
            return float("inf")
        return self.baseline.ttft_s / self.predicted.ttft_s

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "perturbations": list(self.perturbations),
            "baseline": self.baseline.to_dict(),
            "predicted": self.predicted.to_dict(),
            "ttft_delta_s": self.ttft_delta_s,
            "itl_delta_s": self.itl_delta_s,
            "e2e_delta_s": self.e2e_delta_s,
            "ttft_speedup": self.ttft_speedup,
        }


# -- capture ------------------------------------------------------------------


def capture_engine_run(engine, prompt_tokens: int,
                       output_tokens: int = 0,
                       cached_tokens: int = 0) -> CapturedRun:
    """Capture the DAG ``engine.infer(prompt_tokens, output_tokens)``
    would schedule, without running the scheduler.

    Replicates the engine's plan construction exactly (chunk plans are
    memoized per builder, so latencies are bit-identical to what the
    engine itself would see) and appends one decode task per output
    token on the decode backend, gated on the prefill sinks — so decode
    perturbations move ITL and prefill perturbations move TTFT in one
    simulation.
    """
    from repro.core.pipeline import lower_prefill

    if prompt_tokens <= 0:
        raise WhatIfError("prompt_tokens must be positive")
    if output_tokens < 0 or cached_tokens < 0:
        raise WhatIfError("output/cached token counts must be "
                          "non-negative")
    cfg = engine.config
    include_shadow = cfg.quant_mode == "shadow"
    if cfg.chunking:
        plans = engine.graph.plans_for_prompt(prompt_tokens, cached_tokens)
        extra = 0.0
    else:
        rows = max(32, prompt_tokens)
        plans = [engine.builder.build_chunk(
            0, rows, engine.shadow_profiles if include_shadow else None)]
        extra = engine.graph.naive_per_prompt_preparation_s()
    processors, tasks = lower_prefill(plans, cfg.float_backend,
                                      include_shadow, cfg.shadow_backend)
    prefill_ids = frozenset(t.task_id for t in tasks)
    if output_tokens > 0:
        decode_s = engine.decode(cached_tokens + prompt_tokens,
                                 output_tokens)
        per_token = decode_s / output_tokens
        depended = set()
        for t in tasks:
            depended.update(t.deps)
        sinks = tuple(t.task_id for t in tasks
                      if t.task_id not in depended)
        prev: Tuple[str, ...] = sinks
        for i in range(output_tokens):
            tasks.append(Task(
                task_id=f"decode.t{i}", proc=cfg.decode_backend,
                duration_s=per_token, deps=prev, tag="decode",
            ))
            prev = (f"decode.t{i}",)
        if cfg.decode_backend not in processors:
            processors.append(cfg.decode_backend)
    return CapturedRun(
        source=f"{engine.model.name}/{engine.device.name} "
               f"prompt={prompt_tokens} out={output_tokens}",
        processors=tuple(processors),
        device_processors=tuple(engine.device.processors),
        policy=cfg.policy,
        tasks=tuple(tasks),
        prefill_ids=prefill_ids,
        extra_latency_s=extra,
        output_tokens=output_tokens,
        decode_proc=cfg.decode_backend,
    )


# -- outcomes -----------------------------------------------------------------


def perturb_tasks(run: CapturedRun,
                  perturbations: Sequence) -> Tuple[Task, ...]:
    """Apply perturbations in order to every task of a captured run."""
    out = []
    for task in run.tasks:
        for p in perturbations:
            task = p.apply(task)
        out.append(task)
    return tuple(out)


def _simulate(run: CapturedRun, tasks: Sequence[Task],
              simulator=Simulator) -> Trace:
    """Schedule ``tasks`` (``run``'s DAG, perhaps perturbed) with
    ``simulator`` under the run's policy.

    A processor a reassignment introduced joins the run's own after
    them, in first-occurrence order (declaration order matters for
    dispatch); it must be one the captured device has.
    """
    from repro.core.scheduler import get_policy

    procs = list(run.processors)
    for t in tasks:
        if t.proc in procs:
            continue
        if t.proc not in run.device_processors:
            raise WhatIfError(
                f"task {t.task_id}: processor {t.proc!r} is not on the "
                f"captured device; it has {list(run.device_processors)}")
        procs.append(t.proc)
    policy = (get_policy(run.policy) if isinstance(run.policy, str)
              else run.policy)
    return simulator(procs).run(list(tasks), policy)


def _outcome(trace: Trace, run: CapturedRun) -> WhatIfOutcome:
    prefill_end = max(e.end_s for e in trace.events
                      if e.task_id in run.prefill_ids)
    if run.output_tokens > 0:
        decode = [e for e in trace.events
                  if e.task_id not in run.prefill_ids]
        span = (max(e.end_s for e in decode)
                - min(e.start_s for e in decode))
        itl = span / run.output_tokens
    else:
        itl = 0.0
    return WhatIfOutcome(
        ttft_s=prefill_end + run.extra_latency_s,
        itl_s=itl,
        e2e_s=trace.makespan_s + run.extra_latency_s,
    )


def predict(run: CapturedRun, perturbations: Sequence) -> WhatIfReport:
    """Predicted TTFT/ITL/e2e deltas of a perturbed run, from
    :class:`~repro.hw.sim.Simulator`."""
    baseline = _outcome(_simulate(run, run.tasks), run)
    tasks = perturb_tasks(run, perturbations)
    predicted = _outcome(_simulate(run, tasks), run)
    return WhatIfReport(
        source=run.source,
        perturbations=tuple(p.label for p in perturbations),
        baseline=baseline,
        predicted=predicted,
    )


def resimulate(run: CapturedRun,
               perturbations: Sequence) -> WhatIfOutcome:
    """Ground truth: the perturbed DAG through
    :class:`~repro.hw.sim.ReferenceSimulator`."""
    tasks = perturb_tasks(run, perturbations)
    return _outcome(_simulate(run, tasks, ReferenceSimulator), run)


# -- DMA overlap capture ------------------------------------------------------


def engine_with_dma(engine, dma):
    """A fresh engine identical to ``engine`` but built with an explicit
    :class:`~repro.hw.dma.DmaConfig` weight-streaming model.

    The clone binds to the prepared graph of the DMA-bearing build
    options, so it shares neither plans nor prefill memo with
    ``engine``."""
    from repro.core.engine import LlmNpuEngine

    clone = LlmNpuEngine(engine.model, engine.device, engine.config)
    clone._prepare(replace(engine.build_options, dma=dma))
    return clone


def dma_overlap_perturbation(engine, prompt_tokens: int, dma,
                             output_tokens: int = 0,
                             cached_tokens: int = 0):
    """The "DMA overlap on" perturbation for one engine + prompt.

    Rebuilds the engine with ``dma`` and diffs the two captured DAGs:
    ids and dependencies must be identical (the graph's shape is a pure
    function of the chunk plan ladder; only NPU linear latencies move),
    and the changed durations become a :class:`DmaOverlap`.  Returns
    ``(perturbation, clone)`` — the clone is the ground-truth engine
    for cross-checking measured deltas.
    """
    clone = engine_with_dma(engine, dma)
    base = capture_engine_run(engine, prompt_tokens,
                              output_tokens=output_tokens,
                              cached_tokens=cached_tokens)
    streamed = capture_engine_run(clone, prompt_tokens,
                                  output_tokens=output_tokens,
                                  cached_tokens=cached_tokens)
    base_ids = {t.task_id: t for t in base.tasks}
    new_ids = {t.task_id: t for t in streamed.tasks}
    if set(base_ids) != set(new_ids):
        raise WhatIfError(
            "DMA rebuild changed the task-graph shape "
            f"({len(base_ids)} vs {len(new_ids)} tasks)")
    durations = {}
    for tid, new in new_ids.items():
        old = base_ids[tid]
        if new.deps != old.deps or new.proc != old.proc:
            raise WhatIfError(
                f"DMA rebuild changed task {tid!r} structure")
        if new.duration_s != old.duration_s:
            durations[tid] = new.duration_s
    name = "dma-unbounded" if dma.buffers >= 2 ** 16 \
        else f"dma-buffers-{dma.buffers}"
    return DmaOverlap(durations=durations, name=name), clone


# -- CLI spec parsing ---------------------------------------------------------


def speedup_from_spec(spec: str) -> OperatorSpeedup:
    """Parse ``TAG=FACTOR`` (e.g. ``sg1=2`` — SG_QKV twice as fast)."""
    tag, sep, factor = spec.partition("=")
    if not sep or not tag:
        raise WhatIfError(
            f"speedup spec must be TAG=FACTOR, got {spec!r}")
    try:
        return OperatorSpeedup(tag=tag, factor=float(factor))
    except ValueError:
        raise WhatIfError(
            f"speedup factor in {spec!r} is not a number") from None


def reassign_from_spec(spec: str) -> ProcessorReassign:
    """Parse ``TAG=PROC[*SCALE]`` (e.g. ``sg2=npu*0.5`` — attention on
    the NPU at half duration)."""
    tag, sep, rest = spec.partition("=")
    if not sep or not tag or not rest:
        raise WhatIfError(
            f"reassign spec must be TAG=PROC[*SCALE], got {spec!r}")
    proc, star, scale = rest.partition("*")
    try:
        return ProcessorReassign(
            tag=tag, proc=proc,
            duration_scale=float(scale) if star else 1.0)
    except ValueError:
        raise WhatIfError(
            f"reassign scale in {spec!r} is not a number") from None
