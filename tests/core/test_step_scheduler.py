"""Property suite for the iteration-level step-loop scheduler.

Hypothesis drives randomized two-tier request streams through
``LlmService`` in batched mode and checks the scheduler's structural
invariants on the recorded :class:`~repro.core.StepRecord` timeline:

* a request never decodes before its last prefill chunk has executed;
* no step's batch exceeds ``max_batch_tokens``;
* neither knob extreme (``prefill_priority`` 0.0 / 1.0) starves an
  admitted request — every request completes;
* token conservation — each request's executed prefill chunks sum
  exactly to its prompt length.

Run the CI profile with ``HYPOTHESIS_PROFILE=ci`` and
``--hypothesis-seed=0`` (200 examples, like the ``batching-smoke``
job does).
"""

import math
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.core import (  # noqa: E402
    BatchConfig,
    ChunkContinuation,
    EngineConfig,
    LlmService,
    StepItem,
    StepRecord,
    TierPolicy,
    assemble_step,
)
from repro.eval import service_golden_records  # noqa: E402
from repro.graph import chunk_token_lengths  # noqa: E402
from repro.obs import SloMonitor, SloSpec, StepLogger  # noqa: E402

MODEL = "Qwen1.5-1.8B"
DEVICE = "Redmi K70 Pro"
CHUNK = 32

#: Permissive tiers: no admission shedding, so every generated request
#: must run to completion (the starvation invariant needs that).
OPEN_TIERS = {
    "interactive": TierPolicy("interactive", priority=10),
    "background": TierPolicy("background", priority=0),
}

requests_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4 * CHUNK + 7),  # prompt
        st.integers(min_value=1, max_value=6),              # output
        st.floats(min_value=0.0, max_value=3.0,             # arrival
                  allow_nan=False, allow_infinity=False),
        st.sampled_from(["interactive", "background"]),
    ),
    min_size=1, max_size=6,
)

config_strategy = st.tuples(
    st.one_of(st.none(),
              st.integers(min_value=CHUNK, max_value=4 * CHUNK)),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    st.floats(min_value=0.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
)


def run_batched(reqs, max_batch_tokens, max_concurrency,
                prefill_priority):
    svc = LlmService(
        DEVICE, EngineConfig(chunk_len=CHUNK), scheduler="priority",
        admission=False, tiers=OPEN_TIERS,
        batching=BatchConfig(max_batch_tokens=max_batch_tokens,
                             max_concurrency=max_concurrency,
                             prefill_priority=prefill_priority))
    for prompt, output, arrival, tier in reqs:
        svc.enqueue(MODEL, prompt, output, arrival_s=arrival, tier=tier)
    svc.run()
    return svc


def items_by_request(svc):
    """request_id -> executed StepItems in execution order."""
    out = {}
    for step in svc.steps:
        for item in step.items:
            out.setdefault(item.request_id, []).append(item)
    return out


class TestStepInvariants:
    @given(reqs=requests_strategy, cfg=config_strategy)
    def test_no_decode_before_last_prefill_chunk(self, reqs, cfg):
        budget, conc, priority = cfg
        svc = run_batched(reqs, budget, conc, priority)
        for rid, items in items_by_request(svc).items():
            prefills = [i for i in items if i.kind == "prefill"]
            decodes = [i for i in items if i.kind == "decode"]
            # chunks execute in cursor order, exactly once each
            assert [i.index for i in prefills] == list(
                range(len(prefills)))
            if decodes:
                last_prefill_end = max(i.end_s for i in prefills)
                first_decode = min(i.start_s for i in decodes)
                assert first_decode >= last_prefill_end - 1e-12

    @given(reqs=requests_strategy, cfg=config_strategy)
    def test_step_batch_respects_token_budget(self, reqs, cfg):
        budget, conc, priority = cfg
        svc = run_batched(reqs, budget, conc, priority)
        assert svc.steps, "batched run recorded no steps"
        for step in svc.steps:
            assert step.items, "recorded an empty step"
            if budget is not None:
                assert step.batch_tokens <= budget
            assert step.prefill_tokens + step.decode_tokens \
                == step.batch_tokens

    @given(reqs=requests_strategy,
           priority=st.sampled_from([0.0, 1.0]),
           budget=st.one_of(
               st.none(),
               st.integers(min_value=CHUNK, max_value=4 * CHUNK)))
    def test_no_starvation_at_knob_extremes(self, reqs, priority,
                                            budget):
        """Both knob extremes drain every admitted request: at 0.0 the
        decode population is finite (nothing new decodes without
        prefill feeding it), at 1.0 decodes still get one token per
        step — so neither side can starve forever."""
        svc = run_batched(reqs, budget, None, priority)
        records = svc.requests
        assert len(records) == len(reqs)
        assert all(r.status == "completed" for r in records)
        for r in records:
            assert r.ttft_s is not None and r.ttft_s >= 0.0

    @given(reqs=requests_strategy, cfg=config_strategy)
    def test_token_conservation(self, reqs, cfg):
        budget, conc, priority = cfg
        svc = run_batched(reqs, budget, conc, priority)
        by_rid = items_by_request(svc)
        prompts = {rid: prompt
                   for rid, (prompt, _, _, _) in enumerate(reqs)}
        outputs = {rid: output
                   for rid, (_, output, _, _) in enumerate(reqs)}
        assert set(by_rid) == set(prompts)
        for rid, items in by_rid.items():
            prefill_tokens = sum(i.tokens for i in items
                                 if i.kind == "prefill")
            decode_tokens = sum(i.tokens for i in items
                                if i.kind == "decode")
            assert prefill_tokens == prompts[rid]
            assert decode_tokens == outputs[rid]

    @given(reqs=requests_strategy, cfg=config_strategy)
    def test_turnaround_decomposition(self, reqs, cfg):
        """Batched breakdowns still sum to turnaround within 1e-9 s."""
        from repro.obs import breakdown_request
        budget, conc, priority = cfg
        svc = run_batched(reqs, budget, conc, priority)
        for record in svc.requests:
            b = breakdown_request(record)
            assert math.isclose(b.components_s, record.turnaround_s,
                                abs_tol=1e-9)


class TestAssembleStepUnit:
    """Direct unit coverage of the pure batch-assembly function."""

    @staticmethod
    def make_state(rid, chunk_lens, priority=0, arrival=0.0,
                   outputs=1):
        return ChunkContinuation(
            request_id=rid, priority=priority, arrival_s=arrival,
            dispatch_s=arrival, tier_name="background",
            chunk_lens=list(chunk_lens),
            chunk_costs=[0.01] * len(chunk_lens),
            chunk_offset=0,
            token_costs=[0.001] * outputs,
            kv_reserved_bytes=0,
        )

    def test_progress_guarantee_with_nonzero_knob(self):
        decoding = self.make_state(0, [8])
        decoding.cursor = 1  # prefill done, decoding
        waiting = self.make_state(1, [64, 64])
        items = assemble_step([decoding, waiting], 128, 0.1)
        # budget*0.1 < one chunk, but the guarantee admits one anyway
        assert [(i.request_id, i.kind) for i in items] \
            == [(0, "decode"), (1, "prefill")]
        assert sum(i.tokens for i in items) <= 128

    def test_zero_knob_starves_prefill_behind_decoders(self):
        decoding = self.make_state(0, [8])
        decoding.cursor = 1
        waiting = self.make_state(1, [64])
        items = assemble_step([decoding, waiting], 128, 0.0)
        assert all(i.kind == "decode" for i in items)

    def test_decode_window_rotation_under_tiny_budget(self):
        states = []
        for rid in range(4):
            s = self.make_state(rid, [8], outputs=4)
            s.cursor = 1
            states.append(s)
        seen = set()
        for rotation in range(4):
            items = assemble_step(states, 2, 0.5, rotation=rotation)
            assert len(items) == 2
            seen.update(i.request_id for i in items)
        assert seen == {0, 1, 2, 3}  # every decoder eventually advances

    def test_head_of_line_blocks_later_prefills(self):
        first = self.make_state(0, [64, 64], arrival=0.0)
        second = self.make_state(1, [32], arrival=1.0)
        items = assemble_step([first, second], 96, 1.0)
        # first's second chunk does not fit; second must not jump it
        assert [(i.request_id, i.index) for i in items] == [(0, 0)]


class TestSequentialEquivalence:
    """The step loop at concurrency 1 reproduces the per-request path."""

    def test_step_loop_at_concurrency_one_matches_legacy(self):
        """A genuine step loop with one resident request and an
        unbounded effective budget (a huge one, or none at all) replays
        the legacy schedule to floating-point telescoping error."""
        base = service_golden_records()
        for budget in (1 << 30, None):
            stepped = service_golden_records(
                batching=BatchConfig(max_batch_tokens=budget,
                                     max_concurrency=1))
            assert stepped.steps, f"budget={budget} ran no step loop"
            assert [r.request_id for r in stepped.requests] \
                == [r.request_id for r in base.requests]
            for a, b in zip(base.requests, stepped.requests):
                assert a.status == b.status
                assert a.retries == b.retries
                assert math.isclose(a.finish_s, b.finish_s,
                                    abs_tol=1e-9)
                if a.status == "completed":
                    assert math.isclose(a.start_s, b.start_s,
                                        abs_tol=1e-9)


class TestCrossContamination:
    """Interleaved requests with different prompt lengths never leak
    chunk-continuation state (cursor, KV residency) into each other."""

    #: (prompt, output, tier): a long background prefill that the two
    #: interactive arrivals preempt at chunk boundaries, so its
    #: continuation state survives several other requests' chunks.
    CASES = [(7 * CHUNK + 5, 3, "background"),
             (CHUNK - 1, 5, "interactive"),
             (2 * CHUNK, 2, "background"),
             (4 * CHUNK + 1, 4, "interactive")]

    def run_order(self, order):
        """Enqueue the cases in ``order``; returns (service, id map).

        Request ids are assigned in enqueue order, so the map recovers
        which id each *case* received in this permutation.  Arrivals
        depend only on the case, never on the enqueue position.
        """
        svc = LlmService(
            DEVICE, EngineConfig(chunk_len=CHUNK),
            scheduler="priority", admission=False, tiers=OPEN_TIERS,
            batching=BatchConfig(max_batch_tokens=2 * CHUNK,
                                 max_concurrency=4,
                                 prefill_priority=0.5))
        case_to_id = {}
        for idx in order:
            prompt, output, tier = self.CASES[idx]
            case_to_id[idx] = svc.enqueue(
                MODEL, prompt, output, arrival_s=0.05 * idx, tier=tier)
        svc.run()
        return svc, case_to_id

    def test_interleaved_chunk_state_stays_per_request(self):
        svc, case_to_id = self.run_order(range(len(self.CASES)))
        by_rid = items_by_request(svc)
        # the scenario must really interleave: some step batches work
        # from several requests, and some request starts prefilling
        # before an earlier one has finished its own prefill
        assert any(len({i.request_id for i in step.items}) > 1
                   for step in svc.steps), "no multi-request step"
        prefill_windows = {
            rid: (min(i.start_s for i in items if i.kind == "prefill"),
                  max(i.end_s for i in items if i.kind == "prefill"))
            for rid, items in by_rid.items()}
        assert any(
            a != b and prefill_windows[b][0] < prefill_windows[a][1]
            and prefill_windows[a][0] < prefill_windows[b][0]
            for a in prefill_windows for b in prefill_windows
        ), "prefill phases never overlapped across requests"
        for case, (prompt, output, _tier) in enumerate(self.CASES):
            items = by_rid[case_to_id[case]]
            chunks = [i.tokens for i in items if i.kind == "prefill"]
            assert chunks == chunk_token_lengths(prompt, CHUNK)
            assert sum(i.tokens for i in items
                       if i.kind == "decode") == output

    @pytest.mark.parametrize("order", [
        (3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1),
    ])
    def test_submission_order_permutation_invariant(self, order):
        """Arrivals fix the schedule; enqueue order must not."""
        ref_svc, ref_ids = self.run_order((0, 1, 2, 3))
        per_svc, per_ids = self.run_order(order)
        ref = {r.request_id: r for r in ref_svc.requests}
        got = {r.request_id: r for r in per_svc.requests}
        for case in range(len(self.CASES)):
            a, b = ref[ref_ids[case]], got[per_ids[case]]
            assert a.status == b.status == "completed"
            for field in ("arrival_s", "start_s", "finish_s",
                          "ttft_s", "itl_s", "prefill_end_s"):
                assert getattr(a, field) == getattr(b, field), field
        # the step timeline itself is identical up to request renaming
        ref_case = {rid: case for case, rid in ref_ids.items()}
        per_case = {rid: case for case, rid in per_ids.items()}
        assert [
            (s.index, s.start_s, s.end_s,
             tuple((ref_case[i.request_id], i.kind, i.tokens,
                    i.start_s, i.end_s) for i in s.items))
            for s in ref_svc.steps
        ] == [
            (s.index, s.start_s, s.end_s,
             tuple((per_case[i.request_id], i.kind, i.tokens,
                    i.start_s, i.end_s) for i in s.items))
            for s in per_svc.steps
        ]


class TestIncrementalState:
    """The step loop's cached per-step state agrees with a recount."""

    def test_step_record_sums_recount_its_items(self):
        items = (
            StepItem(0, "prefill", 32, 0.01, 0, 0.0, 0.01),
            StepItem(1, "decode", 1, 0.002, 4, 0.01, 0.012),
            StepItem(0, "prefill", 17, 0.01, 1, 0.012, 0.022),
            StepItem(2, "decode", 1, 0.002, 0, 0.022, 0.024),
        )
        record = StepRecord(index=0, start_s=0.0, end_s=0.024, items=items,
                            n_inflight=3, kv_reserved_bytes=0,
                            budget_tokens=64)
        prefill = sum(i.tokens for i in items if i.kind == "prefill")
        decode = sum(i.tokens for i in items if i.kind == "decode")
        assert (record.prefill_tokens, record.decode_tokens,
                record.batch_tokens) == (prefill, decode, prefill + decode)
        assert record.budget_utilization == (prefill + decode) / 64
        shorter = replace(record, items=items[:2])
        assert (shorter.prefill_tokens, shorter.decode_tokens) == (32, 1)
        empty = StepRecord(index=1, start_s=0.0, end_s=0.0, items=(),
                           n_inflight=0, kv_reserved_bytes=0)
        assert empty.batch_tokens == 0

    @given(reqs=requests_strategy, cfg=config_strategy)
    def test_recorded_sums_match_items(self, reqs, cfg):
        svc = run_batched(reqs, *cfg)
        for step in svc.steps:
            assert step.prefill_tokens == sum(
                i.tokens for i in step.items if i.kind == "prefill")
            assert step.decode_tokens == sum(
                i.tokens for i in step.items if i.kind == "decode")
            assert step.n_inflight >= len({i.request_id
                                           for i in step.items})

    @staticmethod
    def two_batch_service(observer=None):
        """A batched service run twice: ``observer`` attaches between
        the runs (None: a StepLogger attached up front is returned)."""
        svc = LlmService(
            DEVICE, EngineConfig(chunk_len=CHUNK), scheduler="priority",
            admission=False, tiers=OPEN_TIERS,
            batching=BatchConfig(max_batch_tokens=2 * CHUNK,
                                 max_concurrency=2))
        early = StepLogger().attach(svc) if observer is None else None
        for i in range(3):
            svc.enqueue(MODEL, 40 + 20 * i, 3, arrival_s=0.01 * i)
        svc.run()
        n_steps = len(svc.steps)
        n_decisions = 0 if early is None else len(early.decisions)
        if observer is not None:
            observer.attach(svc)
        for i in range(3):
            svc.enqueue(MODEL, 70 - 20 * i, 2, arrival_s=0.5 + 0.01 * i,
                        tier="background")
        svc.run()
        return svc, early, n_steps, n_decisions

    def test_late_observer_receives_later_decisions(self):
        full_svc, full, n_steps, n_decisions = self.two_batch_service()
        late = StepLogger()
        svc, _, late_steps, _ = self.two_batch_service(late)
        assert late_steps == n_steps
        assert 0 < n_steps < len(svc.steps)
        assert late.steps == svc.steps[n_steps:] \
            == full.steps[n_steps:]
        assert late.decisions == full.decisions[n_decisions:]
        assert {d.action for d in late.decisions} >= {
            "admitted", "started", "chunk-scheduled", "decode-scheduled",
            "completed"}

    def test_logger_and_monitor_each_see_the_full_stream(self):
        monitor = SloMonitor([SloSpec(name="avail",
                                      objective="availability",
                                      target=0.9)])
        svc = LlmService(
            DEVICE, EngineConfig(chunk_len=CHUNK), scheduler="priority",
            admission=False, tiers=OPEN_TIERS,
            batching=BatchConfig(max_batch_tokens=CHUNK,
                                 prefill_priority=0.0))
        log = StepLogger().attach(svc)
        monitor.attach(svc)
        for i in range(6):
            svc.enqueue(MODEL, 20 + 9 * i, 1 + i % 3, arrival_s=0.0)
        svc.run()
        assert log.steps == svc.steps
        assert monitor.n_steps == len(svc.steps)
        mix = {}
        for d in log.decisions:
            mix[d.action] = mix.get(d.action, 0) + 1
        assert monitor.decision_counts() == dict(sorted(mix.items()))
        assert mix.get("budget-exhausted", 0) > 0
        assert mix["completed"] == 6
