"""What-if estimator: capture fidelity and simulator-vs-oracle agreement.

The contract the module advertises: for every perturbation class
(operator speedup, processor reassignment, DMA overlap) and every
scheduling policy, the TTFT/ITL/e2e that :func:`predict` reads off
``Simulator`` match a re-simulation of the perturbed DAG on the
independent ``ReferenceSimulator`` within 1e-9 s — and the unperturbed
prediction reproduces the engine's own reported latencies.
"""

import pytest

from repro.cli import main
from repro.core import LlmNpuEngine
from repro.hw.dma import DmaConfig
from repro.hw.sim import Task
from repro.obs import (
    WHATIF_TOL_S,
    DmaOverlap,
    OperatorSpeedup,
    ProcessorReassign,
    WhatIfError,
    capture_engine_run,
    dma_overlap_perturbation,
    predict,
    reassign_from_spec,
    resimulate,
    speedup_from_spec,
)


@pytest.fixture(scope="module")
def engine():
    return LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")


@pytest.fixture(scope="module")
def run(engine):
    return capture_engine_run(engine, 512, output_tokens=4)


def assert_agrees(run, perturbations):
    report = predict(run, perturbations)
    truth = resimulate(run, perturbations)
    assert abs(report.predicted.ttft_s - truth.ttft_s) <= WHATIF_TOL_S
    assert abs(report.predicted.itl_s - truth.itl_s) <= WHATIF_TOL_S
    assert abs(report.predicted.e2e_s - truth.e2e_s) <= WHATIF_TOL_S
    return report


class TestCapture:
    def test_baseline_replay_matches_engine_report(self, engine, run):
        report = engine.infer(512, output_tokens=4)
        baseline = predict(run, []).baseline
        assert baseline.ttft_s == report.ttft_s
        assert baseline.e2e_s == report.e2e_latency_s

    def test_capture_rejects_bad_token_counts(self, engine):
        with pytest.raises(WhatIfError, match="positive"):
            capture_engine_run(engine, 0)
        with pytest.raises(WhatIfError, match="non-negative"):
            capture_engine_run(engine, 128, output_tokens=-1)

    def test_decode_chain_rides_on_prefill_sinks(self, run):
        decode = [t for t in run.tasks if t.tag == "decode"]
        assert len(decode) == 4
        # t0 gates on prefill, each later token on its predecessor
        assert all(d in run.prefill_ids for d in decode[0].deps)
        assert decode[1].deps == ("decode.t0",)


class TestPerturbationClasses:
    def test_operator_speedup_agrees_with_resimulation(self, run):
        report = assert_agrees(run, [OperatorSpeedup("sg1", 2.0)])
        assert report.predicted.ttft_s < report.baseline.ttft_s

    def test_processor_reassign_agrees_with_resimulation(self, run):
        assert_agrees(run, [ProcessorReassign("sg2.float", "gpu")])

    def test_dma_overlap_agrees_with_resimulation(self, engine, run):
        pert, clone = dma_overlap_perturbation(
            engine, 512, DmaConfig(buffers=1))
        report = assert_agrees(run, [pert])
        # serial streaming can only slow the NPU stages down
        assert report.predicted.ttft_s >= report.baseline.ttft_s
        # and the prediction matches the rebuilt engine's measurement
        measured = clone.prefill(512).latency_s
        assert abs(report.predicted.ttft_s - measured) <= WHATIF_TOL_S

    def test_stacked_perturbations_agree(self, run):
        assert_agrees(run, [OperatorSpeedup("decode", 1.5),
                            ProcessorReassign("sg4.float", "gpu"),
                            OperatorSpeedup("sg5", 2.0)])

    def test_decode_speedup_moves_itl_not_ttft(self, run):
        report = assert_agrees(run, [OperatorSpeedup("decode", 2.0)])
        assert report.predicted.itl_s < report.baseline.itl_s
        assert report.predicted.ttft_s == report.baseline.ttft_s


POLICIES = ("ooo", "ooo-normalized", "in-order", "chunk-order", "fifo",
            "latency-greedy")


class TestEveryPolicy:
    """``fifo`` takes the simulator's FIFO fast path, the other five its
    generic loop; the reference simulator has one loop for all six."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_perturbation_classes_agree(self, policy):
        engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro",
                                    policy=policy)
        run = capture_engine_run(engine, 512, output_tokens=4)
        assert run.policy == policy
        report = engine.infer(512, output_tokens=4)
        assert predict(run, []).baseline.ttft_s == report.ttft_s
        dma, _clone = dma_overlap_perturbation(
            engine, 512, DmaConfig(buffers=1), output_tokens=4)
        for perturbations in ([OperatorSpeedup("sg1", 2.0)],
                              [ProcessorReassign("sg2.float", "gpu")],
                              [dma],
                              [OperatorSpeedup("decode", 1.5),
                               ProcessorReassign("sg4.float", "gpu")]):
            assert_agrees(run, perturbations)


class TestPerturbationSemantics:
    def test_tag_match_is_exact_or_dotted_prefix(self):
        task = Task(task_id="t", proc="npu", duration_s=1.0,
                    tag="sg1.float")
        assert OperatorSpeedup("sg1", 2.0).apply(task).duration_s == 0.5
        assert OperatorSpeedup("sg1.float", 2.0).apply(task) \
            .duration_s == 0.5
        # no prefix match without the dot boundary: sg1 != sg10
        other = Task(task_id="u", proc="npu", duration_s=1.0, tag="sg10")
        assert OperatorSpeedup("sg1", 2.0).apply(other).duration_s == 1.0

    def test_invalid_parameters_rejected(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(WhatIfError, match="finite and positive"):
                OperatorSpeedup("sg1", bad)
            with pytest.raises(WhatIfError, match="finite and positive"):
                ProcessorReassign("sg1", "gpu", duration_scale=bad)
        with pytest.raises(WhatIfError, match="target processor"):
            ProcessorReassign("sg1", "")
        with pytest.raises(WhatIfError, match="positive"):
            ProcessorReassign("sg1", "gpu", duration_scale=-1.0)

    def test_reassign_target_must_be_on_device(self, run):
        assert run.device_processors == ("cpu", "gpu", "npu")
        for check in (predict, resimulate):
            with pytest.raises(WhatIfError, match="'bogus' is not on"):
                check(run, [ProcessorReassign("sg2.float", "bogus")])

    def test_dma_overlap_is_id_matched(self):
        pert = DmaOverlap(durations={"a": 0.25})
        hit = Task(task_id="a", proc="npu", duration_s=1.0)
        miss = Task(task_id="b", proc="npu", duration_s=1.0)
        assert pert.apply(hit).duration_s == 0.25
        assert pert.apply(miss).duration_s == 1.0


class TestSpecParsing:
    def test_speedup_spec(self):
        pert = speedup_from_spec("sg1=2")
        assert pert.tag == "sg1" and pert.factor == 2.0
        for bad in ("sg1", "=2", "sg1=fast", "sg1=nan", "sg1=inf"):
            with pytest.raises(WhatIfError):
                speedup_from_spec(bad)

    def test_reassign_spec(self):
        pert = reassign_from_spec("sg2=gpu")
        assert (pert.tag, pert.proc, pert.duration_scale) == \
            ("sg2", "gpu", 1.0)
        scaled = reassign_from_spec("sg2=npu*0.5")
        assert scaled.proc == "npu" and scaled.duration_scale == 0.5
        for bad in ("sg2", "sg2=", "sg2=gpu*slow", "sg2=gpu*nan",
                    "sg2=gpu*inf"):
            with pytest.raises(WhatIfError):
                reassign_from_spec(bad)


class TestCliErrors:
    @pytest.mark.parametrize("args", [
        ["--speedup", "sg1=nan"],
        ["--speedup", "sg1=inf"],
        ["--reassign", "sg2=gpu*nan"],
        ["--reassign", "sg2=bogus", "--verify"],
    ])
    def test_bad_perturbation_exits_2(self, args, capsys):
        assert main(["whatif", "--prompt-tokens", "256",
                     "--output-tokens", "2"] + args) == 2
        assert capsys.readouterr().err.startswith("whatif: ")
