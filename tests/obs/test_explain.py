"""Tests for per-request wait attribution (obs/explain.py).

The acceptance property: for every request of a step-logged run — on
both serving paths — the attribution identity holds within 1e-9 s::

    behind + idle + admission + retry == queue + admission + retry

with ``idle ~ 0`` (work conservation).  The hypothesis class replays
the invariant-suite workload distribution (mirrors
``tests/core/test_step_scheduler.py``) through ``explain_all`` +
``validate_explanations``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.core import (  # noqa: E402
    BatchConfig,
    EngineConfig,
    LlmService,
    TierPolicy,
)
from repro.eval.service_eval import (  # noqa: E402
    batched_golden_service,
    golden_steplog,
)
from repro.obs import (  # noqa: E402
    STALL_CAUSES,
    StepLogError,
    StepLogger,
    explain_all,
    explain_lines,
    explain_request,
    explain_table,
    validate_explanations,
)

MODEL = "Qwen1.5-1.8B"
DEVICE = "Redmi K70 Pro"
CHUNK = 32

OPEN_TIERS = {
    "interactive": TierPolicy("interactive", priority=10),
    "background": TierPolicy("background", priority=0),
}

# mirrors tests/core/test_step_scheduler.py — the PR-6 invariant
# suite's workload distribution
requests_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4 * CHUNK + 7),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=3.0,
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
).filter(lambda cfg: not (cfg[0] is None and cfg[1] == 1))


def run_logged(reqs, batching):
    svc = LlmService(
        DEVICE, EngineConfig(chunk_len=CHUNK), scheduler="priority",
        admission=False, tiers=OPEN_TIERS, batching=batching)
    logger = StepLogger().attach(svc)
    for prompt, output, arrival, tier in reqs:
        svc.enqueue(MODEL, prompt, output, arrival_s=arrival, tier=tier)
    svc.run()
    return logger


class TestGoldenRuns:
    def test_batched_golden_reconciles(self):
        atts = explain_all(golden_steplog(seed=42, batched=True))
        assert atts
        validate_explanations(atts)  # raises on any residual > 1e-9

    def test_legacy_golden_reconciles(self):
        atts = explain_all(golden_steplog(seed=42, batched=False))
        assert atts
        validate_explanations(atts)

    def test_knob_extremes_reconcile(self):
        for p in (0.0, 1.0):
            atts = explain_all(
                golden_steplog(seed=42, batched=True,
                               prefill_priority=p))
            validate_explanations(atts)

    def test_interference_only_on_batched_path(self):
        legacy = explain_all(golden_steplog(seed=42, batched=False))
        assert all(a.interference_s == 0.0 for a in legacy)
        batched = explain_all(golden_steplog(seed=42, batched=True))
        assert any(a.interference_s > 0.0 for a in batched)

    def test_stall_causes_are_closed_set(self):
        logger = StepLogger()
        batched_golden_service(seed=42, max_concurrency=2,
                               steplog=logger)
        atts = explain_all(logger)
        validate_explanations(atts)
        causes = {c for a in atts for c, _ in a.stalls}
        assert causes  # the constrained run does stall
        assert causes <= set(STALL_CAUSES)

    def test_unknown_request_id(self):
        doc = golden_steplog(seed=42, batched=True).to_dict()
        with pytest.raises(StepLogError, match="unknown request id"):
            explain_request(doc, 10_000)

    def test_explain_table_renders(self):
        table = explain_table(golden_steplog(seed=42, batched=True))
        rendered = table.render()
        assert "top blocker" in rendered
        assert "within 1e-9 s" in rendered

    def test_explain_lines_narrative(self):
        doc = golden_steplog(seed=42, batched=True).to_dict()
        lines = "\n".join(explain_lines(doc, 7))
        assert "request 00007" in lines
        assert "behind:" in lines
        assert "decisions:" in lines
        assert "reconciliation:" in lines


class TestReconciliationProperty:
    """Hypothesis replay of the invariant-suite workloads."""

    @given(reqs=requests_strategy, cfg=config_strategy)
    def test_attribution_identity_over_invariant_workloads(
            self, reqs, cfg):
        budget, conc, priority = cfg
        logger = run_logged(reqs, BatchConfig(
            max_batch_tokens=budget, max_concurrency=conc,
            prefill_priority=priority))
        atts = explain_all(logger)
        assert len(atts) == len(reqs)
        validate_explanations(atts)  # residual and idle <= 1e-9 s

    @given(reqs=requests_strategy)
    def test_attribution_identity_on_legacy_path(self, reqs):
        logger = run_logged(reqs, batching=None)
        atts = explain_all(logger)
        assert len(atts) == len(reqs)
        validate_explanations(atts)
