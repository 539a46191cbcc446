"""Tests for the ``repro.steps/v1`` step log (obs/steplog.py)."""

import json

import pytest

from repro.eval.service_eval import (
    golden_steplog,
    golden_steplog_json,
    service_golden_snapshot,
)
from repro.obs import (
    DECISION_ACTIONS,
    Decision,
    MonitorError,
    SloMonitor,
    SloSpec,
    StepLogError,
    StepLogger,
    as_steps_doc,
    decision_mix,
    load_doc,
    occupancy_summary,
    validate_steps_doc,
    write_text,
)
from repro.obs.schemas import STEPS_SCHEMA


class TestDecision:
    def test_unknown_action_rejected(self):
        with pytest.raises(StepLogError, match="unknown decision action"):
            Decision(t_s=0.0, request_id=1, action="vibed", tier="x")

    def test_every_taxonomy_action_constructs(self):
        for action in DECISION_ACTIONS:
            d = Decision(t_s=1.0, request_id=0, action=action,
                         tier="interactive")
            assert d.action == action

    def test_roundtrip(self):
        d = Decision(t_s=2.5, request_id=7, action="chunk-scheduled",
                     tier="background", step=3, quantity="tokens",
                     value=128.0, limit=1024.0)
        assert Decision.from_dict(d.to_dict()) == d

    def test_positional_construction_is_validated(self):
        # The service builds decisions positionally: the tuple's fields
        # are (t_s, request_id, action, tier, step, quantity, value,
        # limit), and an unknown action still raises.
        with pytest.raises(StepLogError, match="unknown decision action"):
            Decision(0.0, 1, "vibed", "x")
        with pytest.raises(StepLogError, match="unknown decision action"):
            Decision.from_dict({"t_s": 0.0, "request_id": 1,
                                "action": ["admitted"], "tier": "x"})
        d = Decision(2.5, 7, "decode-scheduled", "background", 3,
                     "token_index", 4.0)
        assert (d.action, d.tier, d.step, d.value, d.limit) == (
            "decode-scheduled", "background", 3, 4.0, None)

    def test_roundtrip_with_defaults_and_pickle(self):
        import pickle
        d = Decision(t_s=1.0, request_id=3, action="admitted", tier="t")
        assert d.to_dict()["step"] is None
        assert Decision.from_dict(d.to_dict()) == d
        back = pickle.loads(pickle.dumps(d))
        assert back == d and type(back) is Decision

    def test_from_dict_missing_key(self):
        with pytest.raises(StepLogError, match="missing key"):
            Decision.from_dict({"t_s": 0.0, "request_id": 1})


class TestGoldenStepLog:
    @pytest.fixture(scope="class")
    def batched_doc(self):
        return golden_steplog(seed=42, batched=True).to_dict()

    def test_document_validates(self, batched_doc):
        validate_steps_doc(batched_doc)
        assert batched_doc["schema"] == STEPS_SCHEMA
        assert batched_doc["n_steps"] == len(batched_doc["steps"]) > 0
        assert batched_doc["n_decisions"] == len(batched_doc["decisions"])
        assert batched_doc["n_requests"] == len(batched_doc["requests"])

    def test_legacy_run_has_no_steps_but_has_decisions(self):
        doc = golden_steplog(seed=42, batched=False).to_dict()
        validate_steps_doc(doc)
        assert doc["n_steps"] == 0
        # admission + dispatch + terminal decisions still stream
        mix = decision_mix(doc["decisions"])
        assert mix.get("admitted", 0) > 0
        assert mix.get("dispatched", 0) > 0

    def test_batched_decision_mix_covers_step_loop(self, batched_doc):
        mix = decision_mix(batched_doc["decisions"])
        for action in ("admitted", "started", "chunk-scheduled",
                       "decode-scheduled", "completed"):
            assert mix.get(action, 0) > 0, action
        assert set(mix) <= set(DECISION_ACTIONS)

    def test_save_load_roundtrip(self, tmp_path, batched_doc):
        logger = golden_steplog(seed=42, batched=True)
        path = write_text(str(tmp_path / "steps.json"), logger.to_json())
        assert load_doc(path, STEPS_SCHEMA) == logger.to_dict()

    def test_json_export_is_deterministic(self):
        assert golden_steplog_json(seed=42, batched=True) == \
            golden_steplog_json(seed=42, batched=True)

    def test_observation_is_a_noop(self):
        baseline = service_golden_snapshot(seed=42)
        observed = service_golden_snapshot(seed=42, steplog=StepLogger())
        assert observed == baseline


class TestValidation:
    def _doc(self):
        return golden_steplog(seed=42, batched=True).to_dict()

    def test_wrong_schema(self):
        doc = self._doc()
        doc["schema"] = "repro.oops/v1"
        with pytest.raises(StepLogError, match="expected schema"):
            validate_steps_doc(doc)

    def test_missing_list(self):
        doc = self._doc()
        del doc["decisions"]
        with pytest.raises(StepLogError, match="missing list"):
            validate_steps_doc(doc)

    def test_count_mismatch(self):
        doc = self._doc()
        doc["n_steps"] += 1
        with pytest.raises(StepLogError, match="n_steps"):
            validate_steps_doc(doc)

    def test_inverted_step_window(self):
        doc = self._doc()
        doc["steps"][0]["end_s"] = doc["steps"][0]["start_s"] - 1.0
        with pytest.raises(StepLogError, match="end before start"):
            validate_steps_doc(doc)

    def test_work_conservation_inside_step(self):
        doc = self._doc()
        doc["steps"][0]["items"][0]["end_s"] += 0.5
        with pytest.raises(StepLogError, match="items span"):
            validate_steps_doc(doc)

    def test_bad_decision_action(self):
        doc = self._doc()
        doc["decisions"][0]["action"] = "yolo"
        with pytest.raises(StepLogError, match="unknown decision action"):
            validate_steps_doc(doc)

    def test_load_unreadable(self, tmp_path):
        with pytest.raises(StepLogError, match="cannot read"):
            load_doc(str(tmp_path / "nope.json"), STEPS_SCHEMA)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StepLogError, match="cannot read"):
            load_doc(str(path), STEPS_SCHEMA)

    def test_as_steps_doc_rejects_garbage(self):
        with pytest.raises(StepLogError, match="cannot interpret"):
            as_steps_doc(42)

    def test_as_steps_doc_accepts_live_service(self):
        from repro.eval.service_eval import batched_golden_service
        svc = batched_golden_service(seed=42)
        doc = as_steps_doc(svc)
        validate_steps_doc(doc)
        assert doc["n_steps"] == len(svc.steps)
        assert doc["decisions"] == []  # no logger was attached


def starved_requests(steps, min_steps):
    """Starvation over a step stream, from the one detector:
    :meth:`SloMonitor.starved_requests` of a monitor fed ``steps``."""
    monitor = SloMonitor([SloSpec("avail", "availability", 0.99)])
    monitor.observe_steps(steps)
    return monitor.starved_requests(min_steps)


class TestDerivedDetectors:
    def _step(self, index, queued):
        return {"index": index, "start_s": float(index),
                "end_s": float(index) + 1.0, "n_inflight": 1,
                "batch_tokens": 32, "prefill_tokens": 32,
                "decode_tokens": 0, "budget_utilization": 0.5,
                "queued_ids": queued, "items": []}

    def test_occupancy_summary_empty(self):
        assert occupancy_summary([]) == {"n_steps": 0.0}

    def test_occupancy_summary_dicts(self):
        steps = [self._step(0, [1]), self._step(1, [1, 2])]
        out = occupancy_summary(steps)
        assert out["n_steps"] == 2.0
        assert out["mean_batch_tokens"] == 32.0
        assert out["mean_queue_depth"] == 1.5
        assert out["mean_budget_utilization"] == 0.5

    def test_starved_requests_streaks(self):
        # id 1 queued for 3 consecutive steps, id 2 only ever 1
        steps = [self._step(0, [1]), self._step(1, [1, 2]),
                 self._step(2, [1])]
        assert starved_requests(steps, min_steps=3) == [(1, 3)]
        assert starved_requests(steps, min_steps=4) == []

    def test_starved_requests_streak_resets(self):
        steps = [self._step(0, [1]), self._step(1, []),
                 self._step(2, [1])]
        assert starved_requests(steps, min_steps=2) == []

    def test_starved_requests_min_steps_validated(self):
        with pytest.raises(MonitorError, match="min_steps"):
            starved_requests([], min_steps=0)

    def test_constrained_run_surfaces_starvation(self):
        # squeeze the golden batched stream through concurrency 2: the
        # backlog queues requests for dozens of consecutive steps and
        # the detector must surface them
        from repro.eval.service_eval import batched_golden_service
        logger = StepLogger()
        batched_golden_service(seed=42, max_concurrency=2,
                               steplog=logger)
        starved = starved_requests(logger.steps, min_steps=8)
        assert starved
        assert all(n >= 8 for _, n in starved)

    def test_golden_stream_never_queues_at_default_concurrency(self):
        # the default config (concurrency 8) absorbs the golden stream
        # without queueing — the baseline the constrained run contrasts
        doc = golden_steplog(seed=42, batched=True).to_dict()
        assert starved_requests(doc["steps"], min_steps=1) == []


class TestSchemaCheckerAcceptsStepLog:
    def test_cli_schema_checker(self, tmp_path, capsys):
        from repro.cli import main
        path = write_text(str(tmp_path / "steps.json"),
                          golden_steplog(seed=42, batched=True).to_json())
        assert main(["validate", path]) == 0, capsys.readouterr().err
        assert STEPS_SCHEMA in capsys.readouterr().out
