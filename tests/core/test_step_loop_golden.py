"""Byte-level pins of step-loop paths the host digests do not reach.

The ``serve_steploop`` host workload and the ``batching-smoke`` snapshot
only run the golden batching config (``max_batch_tokens=1024``,
``max_concurrency=8``, no KV budget).  Each case below drives the step
loop through another branch of its start loop or batch assembly, with a
:class:`~repro.obs.StepLogger` attached, and compares sha256 digests of

* the logger's ``repro.steps/v1`` JSON (steps, decisions, records), and
* ``service_batching_golden_snapshot``-style text lines (every request's
  full-precision timings plus every step's token and KV counts)

against digests recorded before the step loop's per-step state was made
incremental.  The digests are the oracle: never regenerate them to make
a refactor pass.  A mismatch means the scheduler's output moved.

``decode-rotated-out`` has no case: the service can never hold more
decoders than ``max_batch_tokens``.  A request becomes a decoder only by
executing its last prefill chunk, which spends at least one token of
the budget left over after that step's decode tokens (no chunk from
``chunk_token_lengths`` is empty), so the decoder count after any step
is at most the budget.  The ``tight-budget`` case
runs at that bound instead (decoders fill the whole budget and every
waiting prefill is ``budget-exhausted``); the rotation window itself is
covered by ``TestAssembleStepUnit``.
"""

import hashlib

import pytest

from repro.core import BatchConfig, EngineConfig, LlmService, TierPolicy
from repro.eval import (
    EXPERIMENT_TIERS,
    batched_golden_service,
    batching_arrivals,
)
from repro.hw.sim import FaultSpec
from repro.obs import StepLogger

MODEL = "Qwen1.5-1.8B"
DEVICE = "Redmi K70 Pro"

#: KV budget (480 MiB) about three times the largest request's projected
#: footprint in the golden batching stream, so the start loop often
#: defers the queue head until an in-flight request frees its KV.
KV_BUDGET_BYTES = 480 * 2 ** 20

OPEN_TIERS = {
    "interactive": TierPolicy("interactive", priority=10),
    "background": TierPolicy("background", priority=0),
}


def golden_stream_service(batching, scheduler="priority", admission=True,
                          steplog=None):
    """The golden batching scenario under any scheduler and BatchConfig."""
    service = LlmService(DEVICE, EngineConfig(), scheduler=scheduler,
                         admission=admission,
                         fault_spec=FaultSpec(transient_rate=0.1, seed=7),
                         tiers=EXPERIMENT_TIERS, batching=batching)
    steplog.attach(service)
    for tier, sample, arrival in batching_arrivals(seed=42):
        service.enqueue(MODEL, sample.prompt_tokens, sample.output_tokens,
                        arrival_s=arrival, tier=tier)
    service.run()
    return service


def tight_budget_service(steplog):
    """Short requests whose decoders fill a one-chunk token budget."""
    service = LlmService(DEVICE, EngineConfig(chunk_len=32),
                         scheduler="priority", admission=False,
                         tiers=OPEN_TIERS,
                         batching=BatchConfig(max_batch_tokens=32,
                                              prefill_priority=0.5))
    steplog.attach(service)
    for i in range(36):
        service.enqueue(MODEL, 1 + (7 * i) % 40, 2 + i % 5,
                        arrival_s=0.01 * (i % 9),
                        tier="interactive" if i % 4 == 0 else "background")
    service.run()
    return service


CASES = {
    "kv-budget": lambda log: golden_stream_service(
        BatchConfig(max_batch_tokens=1024, max_concurrency=8,
                    kv_budget_bytes=KV_BUDGET_BYTES), steplog=log),
    "kv-budget-fifo": lambda log: golden_stream_service(
        BatchConfig(max_batch_tokens=1024, max_concurrency=8,
                    kv_budget_bytes=KV_BUDGET_BYTES),
        scheduler="fifo", admission=False, steplog=log),
    "tight-budget": tight_budget_service,
    "concurrency-1": lambda log: batched_golden_service(
        max_concurrency=1, steplog=log),
    "priority-0.0": lambda log: batched_golden_service(
        prefill_priority=0.0, steplog=log),
    "priority-1.0": lambda log: batched_golden_service(
        prefill_priority=1.0, steplog=log),
}

#: The decision each case exists to exercise.
TARGET_ACTION = {
    "kv-budget": "kv-deferred",
    "kv-budget-fifo": "kv-deferred",
    "tight-budget": "budget-exhausted",
    "concurrency-1": "concurrency-deferred",
    "priority-0.0": "budget-exhausted",
    "priority-1.0": "concurrency-deferred",
}

#: case -> (sha256 of StepLogger.to_json(), sha256 of the snapshot lines)
GOLDEN = {
    "concurrency-1": (
        "40d288b8d76c5dce982e6e84da65436e8fc4efd7472b6770b8a26a0ca5711f14",
        "4bd9b1b8df8f2a04a875cb083cee798cdd96537edabdb509302672812a1333cc"),
    "kv-budget": (
        "82c8778b40c5e45a5e81297d830430e39cf7ca7d8e1fe9652ba68fb112eb2726",
        "c7a817aab8a537c6a6b968288f1574d8d3d18256927108b2010a1c80cf80b1f8"),
    "kv-budget-fifo": (
        "f493c90f8f82e37a52612e51384ce53a74467315b6278a5fc120bc53c39a8515",
        "7d67f6693f0ae39e0baeb6bc90758f8ff07e23eaa518c59c7992da2137b9b476"),
    "priority-0.0": (
        "69ae7b01f053c55b5d12f7089feb71a4acbef152e58d7c3b7df3d07ee6140696",
        "8f099a1e7c90f9db6dda623cd2488f2a552a660aa8203be393b5c3850483ac5b"),
    "priority-1.0": (
        "ae29ee292ec742a4361822e17ed6793ee868bd09a10401a5383dc75f37a140a2",
        "5559f5d10125e68a44d01b08e8b23953854d76075fe0b9bcc3dab0da031e9c6c"),
    "tight-budget": (
        "713ea6d810631ef487d72133eb2d13bb8a2b34b82e24f24eb7ed2905ad66b134",
        "1809648eb0c46858f2ea0a63ee6a1560c7629cf4a3486fe281966cf271f5a902"),
}


def snapshot_lines(service) -> str:
    """``service_batching_golden_snapshot``'s request and step lines."""
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
    return "\n".join(lines)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(case: str):
    log = StepLogger(source=f"step-loop golden {case}")
    service = CASES[case](log)
    return log, service, (sha256(log.to_json()),
                          sha256(snapshot_lines(service)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_loop_matches_golden_digests(case):
    log, service, got = digests(case)
    actions = {d.action for d in log.decisions}
    assert TARGET_ACTION[case] in actions, sorted(actions)
    budget = service.batching.max_batch_tokens
    assert all(s.batch_tokens <= budget for s in service.steps)
    assert got == GOLDEN[case]

