"""The four workloads of the host-cost benchmark.

Each workload turns a seed into a list of op inputs (:func:`make_inputs`,
run before timing) and runs one op per input (:func:`make_op`).  An op
returns its serialized output, which the benchmark digests, and a check
that runs the in-package validators on it outside the timed region.

The input lists are longer than any run reaches, so a faster commit
measures more distinct ops instead of repeating earlier ones.
"""

from __future__ import annotations

import json
import random
from typing import Callable, List, Tuple

from repro.core import LlmNpuEngine
from repro.eval.fleet import default_fleet, fleet_report
from repro.eval.service_eval import batched_golden_service
from repro.eval.whatif_eval import service_critical_paths
from repro.obs.critical_path import critpath_doc, validate_critical_path
from repro.obs.diff import diff_docs, validate_diff
from repro.obs.schemas import FLEET_SCHEMA
from repro.obs.steplog import StepLogger, validate_steps_doc
from repro.obs.whatif import (
    OperatorSpeedup,
    capture_engine_run,
    predict,
    resimulate,
)

WORKLOADS = ("fleet", "prefill_sweep", "serve_steploop", "postmortem")

#: Ops per workload whose output digests are committed under
#: ``expected/`` for seeds 0 and 1.
EXPECTED_OPS = {"fleet": 100, "prefill_sweep": 224, "serve_steploop": 150,
                "postmortem": 100}

#: Inputs generated per run, for the workloads whose input stream has
#: no natural end.
STREAM_OPS = 1000

SWEEP_MODELS = ("Qwen1.5-1.8B", "Gemma-2B", "Phi-2-2.7B", "LlaMA-2-7B",
                "Mistral-7B", "Qwen2-1.5B", "Phi3-mini-3.8B")
SWEEP_DEVICES = ("Redmi K70 Pro", "Redmi K60 Pro")
SWEEP_BACKENDS = ("cpu", "gpu")
SWEEP_POLICIES = ("ooo", "in-order", "chunk-order", "fifo")
SWEEP_CHUNK_LEN = 256
SWEEP_MAX_CHUNKS = 8
SWEEP_OUTPUT_TOKENS = 16
#: Fig. 16's pruning axis.  Pass ``p`` over the 224 Table-5/Fig-14/
#: Fig-19 cells runs at ``PRUNING_LADDER[p]``; the rates sit far enough
#: apart that every pass prunes a different layer set, so no op of the
#: sweep lowers a DAG an earlier op lowered.
PRUNING_LADDER = (0.85, 0.6, 0.35, 0.1, 0.975, 0.725, 0.475, 0.225)

SERVE_PRIORITIES = (0.0, 0.25, 0.5, 0.75, 1.0)

POSTMORTEM_MODEL = "Qwen1.5-1.8B"
WHATIF_TAGS = ("sg1", "sg2", "sg5", "shadow", "decode")
WHATIF_FACTORS = (0.5, 2.0)
#: predict == resimulate tolerance, the what-if layer's own guarantee.
WHATIF_TOL_S = 1e-9


class CheckError(Exception):
    """An op's output failed a correctness check."""


def serialize(doc) -> str:
    """The serialization every op's output goes through."""
    return json.dumps(doc, sort_keys=True, allow_nan=False)


def make_inputs(workload: str, seed: int) -> list:
    """Every op input of one run, a pure function of ``seed``."""
    if workload == "fleet":
        return list(default_fleet(STREAM_OPS, seed=seed))
    if workload == "prefill_sweep":
        return _sweep_cells(seed)
    if workload == "serve_steploop":
        return [(seed * 1000 + i, SERVE_PRIORITIES[i % 5])
                for i in range(STREAM_OPS)]
    if workload == "postmortem":
        rng = random.Random(seed)
        return [(seed * 1000 + i, rng.choice(WHATIF_TAGS),
                 rng.choice(WHATIF_FACTORS), rng.random())
                for i in range(STREAM_OPS)]
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_cells(seed: int) -> List[tuple]:
    """Model x device x float backend x 1-8 chunks, once per pruning rate.

    The seed permutes models and chunk counts within each device/backend
    group and draws the prompt lengths; groups come in a fixed order.
    Every window of 56 ops is then a full model x chunk grid, so runs
    that stop mid-pass measure the same mix whatever the seed.  The
    policy follows a Latin square over (group, model, chunks, pass)
    rather than a draw: ``in-order`` costs the host up to 8x what the
    others do, and a draw would let the seed decide how many of the
    largest cells pay it.
    """
    rng = random.Random(seed)
    groups = [(d, b) for d in SWEEP_DEVICES for b in SWEEP_BACKENDS]
    cells = []
    for p, rate in enumerate(PRUNING_LADDER):
        for g, (device, backend) in enumerate(groups):
            for m in rng.sample(range(len(SWEEP_MODELS)), len(SWEEP_MODELS)):
                chunks = list(range(1, SWEEP_MAX_CHUNKS + 1))
                rng.shuffle(chunks)
                for n in chunks:
                    prompt = rng.randint((n - 1) * SWEEP_CHUNK_LEN + 1,
                                         n * SWEEP_CHUNK_LEN)
                    policy = SWEEP_POLICIES[(g + m + n + p)
                                            % len(SWEEP_POLICIES)]
                    cells.append((SWEEP_MODELS[m], device, backend, n,
                                  prompt, policy, rate))
    return cells


# -- ops ----------------------------------------------------------------------


def make_op(workload: str) -> Callable[[tuple], Tuple[str, Callable]]:
    """The op function of one workload: ``op(input) -> (payload, check)``.

    ``payload`` is the op's serialized output; ``check()`` raises
    :class:`CheckError` (or a validator's own error) when it is wrong.
    """
    if workload == "fleet":
        return _fleet_op
    if workload == "prefill_sweep":
        return _sweep_op
    if workload == "serve_steploop":
        return _serve_op
    if workload == "postmortem":
        return _Postmortem().op
    raise ValueError(f"unknown workload {workload!r}")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _fleet_op(spec) -> Tuple[str, Callable]:
    report = fleet_report(specs=[spec])
    payload = serialize(report)

    def check() -> None:
        _require(report["schema"] == FLEET_SCHEMA, "fleet schema")
        (device,) = report["devices"]
        _require(device["name"] == spec.name, "fleet device name")
        outcomes = (device["n_completed"] + device["n_rejected"]
                    + device["n_timeout"] + device["n_failed"])
        _require(outcomes == device["n_requests"],
                 "fleet request outcomes do not sum to requests")
    return payload, check


def _sweep_op(cell) -> Tuple[str, Callable]:
    model, device, backend, n_chunks, prompt, policy, rate = cell
    engine = LlmNpuEngine.build(model, device, float_backend=backend,
                                policy=policy, pruning_rate=rate)
    report = engine.infer(prompt, SWEEP_OUTPUT_TOKENS)
    prefill = report.prefill
    payload = serialize({
        "prefill_s": prefill.latency_s,
        "n_chunks": prefill.n_chunks,
        "npu_busy_s": prefill.npu_busy_s,
        "float_busy_s": prefill.float_busy_s,
        "npu_bubble_rate": prefill.npu_bubble_rate,
        "decode_s": report.decode_latency_s,
        "energy_j": report.energy_j,
        "memory_bytes": report.memory_bytes,
    })

    def check() -> None:
        _require(prefill.n_chunks == n_chunks, "chunk count")
        # A processor cannot be busy for longer than the makespan.
        _require(prefill.latency_s + 1e-12 >= max(prefill.npu_busy_s,
                                                  prefill.float_busy_s),
                 "prefill makespan below a processor's busy time")
        _require(report.decode_latency_s > 0.0, "decode latency")
    return payload, check


def _serve_op(inp) -> Tuple[str, Callable]:
    seed, priority = inp
    log = StepLogger(source=f"serve seed={seed} p={priority}")
    batched_golden_service(seed=seed, prefill_priority=priority,
                           steplog=log)
    doc = log.to_dict()
    return serialize(doc), lambda: validate_steps_doc(doc)


class _Postmortem:
    """Critpath, diff against the previous op, what-if on the engine."""

    def __init__(self):
        self.previous = None

    def op(self, inp) -> Tuple[str, Callable]:
        seed, tag, factor, pick = inp
        paths, service = service_critical_paths(seed=seed)
        doc = critpath_doc(paths, source=f"golden service seed={seed}")
        diff = diff_docs(self.previous or doc, doc)
        validate_diff(diff)
        self.previous = doc
        completed = [r for r in service.requests
                     if r.status == "completed" and r.report is not None]
        report = completed[int(pick * len(completed))].report
        run = capture_engine_run(service.engine_for(POSTMORTEM_MODEL),
                                 report.prompt_tokens,
                                 output_tokens=report.output_tokens)
        perturbation = [OperatorSpeedup(tag=tag, factor=factor)]
        predicted = predict(run, perturbation).predicted
        measured = resimulate(run, perturbation)
        payload = serialize({
            "critpath": doc,
            "diff": diff,
            "predicted": predicted.to_dict(),
            "resimulated": measured.to_dict(),
        })

        def check() -> None:
            for path in doc["paths"]:
                validate_critical_path(path)
            for key, value in predicted.to_dict().items():
                _require(abs(value - getattr(measured, key)) <= WHATIF_TOL_S,
                         f"what-if {key}: predict {value!r} != "
                         f"resimulate {getattr(measured, key)!r}")
        return payload, check
