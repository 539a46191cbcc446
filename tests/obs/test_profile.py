"""Tests for the profiler: attribution, idle causes, roofline, energy.

The synthetic-trace tests pin the classification semantics on
hand-checkable timelines; the engine/service tests assert the two
load-bearing reconciliations — time conservation against the trace
makespan and energy against the engine's reported totals.
"""

import json
import math

import pytest

from repro.cli import main
from repro.hw.soc import get_device
from repro.hw.trace import Trace, TraceEvent
from repro.obs import (
    ProfileError,
    ProfileReport,
    attribute_energy,
    attribute_time,
    calibrated_peak_ops,
    classify_idle,
    flamegraph_lines,
    merge_profiles,
    profile_inference,
    profile_trace,
    validate_profile,
    write_text,
)


def two_proc_trace():
    """cpu and npu interleave: npu [0,1] matmul, cpu [1,1.5] sync fence,
    cpu [1.5,2] outlier, npu [2,3] decode.  Makespan 3."""
    t = Trace()
    t.add(TraceEvent("c0.l0.sg0", "npu", 0.0, 1.0, tag="", ops=2e9))
    t.add(TraceEvent("c0.l0.sync", "cpu", 1.0, 1.5, tag="sync"))
    t.add(TraceEvent("c0.l0.shadow", "cpu", 1.5, 2.0, tag="outlier",
                     ops=1e8))
    t.add(TraceEvent("decode", "npu", 2.0, 3.0, tag="decode"))
    return t


class TestAttributeTime:
    def test_buckets_and_ops(self):
        costs = {c.key: c for c in attribute_time(two_proc_trace())}
        assert set(costs) == {("cpu", "sync"), ("cpu", "outlier"),
                              ("npu", "task"), ("npu", "decode")}
        assert costs[("npu", "task")].ops == 2e9
        assert costs[("npu", "task")].busy_s == 1.0
        assert costs[("cpu", "sync")].ops == 0.0
        assert costs[("cpu", "outlier")].n_events == 1

    def test_untagged_falls_into_task_bucket(self):
        t = Trace()
        t.add(TraceEvent("a", "cpu", 0.0, 1.0))
        (cost,) = attribute_time(t)
        assert cost.tag == "task"

    def test_busy_matches_trace(self):
        trace = two_proc_trace()
        costs = attribute_time(trace)
        for proc in trace.processors():
            total = sum(c.busy_s for c in costs if c.proc == proc)
            assert total == pytest.approx(trace.busy_seconds(proc))


class TestClassifyIdle:
    def test_sync_beats_dependency(self):
        idle = classify_idle(two_proc_trace())
        # npu idles [1,2]: [1,1.5] under the sync fence, [1.5,2] while
        # the cpu runs the shadow matmul.
        assert idle["npu"]["sync_wait"] == pytest.approx(0.5)
        assert idle["npu"]["dependency"] == pytest.approx(0.5)
        assert idle["npu"]["starvation"] == 0.0
        # cpu idles [0,1] and [2,3], both while the npu is busy.
        assert idle["cpu"]["dependency"] == pytest.approx(2.0)
        assert idle["cpu"]["sync_wait"] == 0.0

    def test_starvation_when_everything_quiet(self):
        t = Trace()
        t.add(TraceEvent("a", "cpu", 0.0, 1.0))
        t.add(TraceEvent("b", "cpu", 2.0, 3.0))
        idle = classify_idle(t)
        assert idle["cpu"]["starvation"] == pytest.approx(1.0)
        assert idle["cpu"]["dependency"] == 0.0

    def test_prep_charged_as_graph_build_everywhere(self):
        idle = classify_idle(two_proc_trace(), prep_s=0.25)
        assert idle["cpu"]["graph_build"] == 0.25
        assert idle["npu"]["graph_build"] == 0.25

    def test_negative_prep_rejected(self):
        with pytest.raises(ProfileError):
            classify_idle(two_proc_trace(), prep_s=-1.0)

    def test_conservation_per_processor(self):
        trace = two_proc_trace()
        idle = classify_idle(trace, prep_s=0.5)
        window = trace.makespan_s + 0.5
        for proc in trace.processors():
            total = trace.busy_seconds(proc) + sum(idle[proc].values())
            assert total == pytest.approx(window, abs=1e-9)


class TestProfileTrace:
    def test_report_conserves_and_validates(self):
        report = profile_trace(two_proc_trace(), prep_s=0.5)
        assert report.window_s == pytest.approx(3.5)
        validate_profile(report)  # does not raise
        for p in report.processors:
            assert p.busy_s + p.idle_s == pytest.approx(report.window_s,
                                                        abs=1e-9)

    def test_operator_busy_sums_to_processor_busy(self):
        report = profile_trace(two_proc_trace())
        for p in report.processors:
            op_total = sum(o.busy_s for o in report.operators
                           if o.proc == p.proc)
            assert op_total == pytest.approx(p.busy_s, abs=1e-12)

    def test_phases_split_prefill_decode(self):
        report = profile_trace(two_proc_trace(), prep_s=0.5)
        assert report.phases["prepare_s"] == 0.5
        assert report.phases["decode_busy_s"] == pytest.approx(1.0)
        assert report.phases["prefill_busy_s"] == pytest.approx(2.0)

    def test_roofline_needs_device(self):
        report = profile_trace(two_proc_trace())
        assert report.processor("npu").peak_ops_per_s is None
        assert report.processor("npu").roofline_fraction is None

    def test_roofline_with_device(self):
        device = get_device("Redmi K70 Pro")
        report = profile_trace(two_proc_trace(), device=device)
        npu = report.processor("npu")
        assert npu.peak_ops_per_s == calibrated_peak_ops(
            device.processors["npu"]
        )
        # only the [0,1] matmul event carries ops
        assert npu.matmul_busy_s == pytest.approx(1.0)
        assert npu.achieved_ops_per_s == pytest.approx(2e9)
        assert npu.roofline_fraction == pytest.approx(
            2e9 / npu.peak_ops_per_s
        )

    def test_validation_catches_tampering(self):
        report = profile_trace(two_proc_trace())
        bad = ProfileReport(
            window_s=report.window_s + 1.0,
            n_traces=1,
            processors=report.processors,
            operators=report.operators,
            phases=report.phases,
        )
        with pytest.raises(ProfileError):
            validate_profile(bad)

    def test_energy_requires_device(self):
        with pytest.raises(ProfileError):
            profile_trace(two_proc_trace(), include_energy=True)


class TestCalibratedPeak:
    def test_npu_rated_at_int8(self):
        device = get_device("Redmi K70 Pro")
        from repro.hw.processor import DType
        spec = device.processors["npu"]
        assert calibrated_peak_ops(spec) == spec.matmul[DType.INT8].peak_ops

    def test_cpu_rated_at_widest_float(self):
        device = get_device("Redmi K70 Pro")
        from repro.hw.processor import DType
        spec = device.processors["cpu"]
        assert calibrated_peak_ops(spec) == spec.matmul[DType.FP32].peak_ops


class TestFlamegraph:
    def test_collapsed_stacks(self):
        lines = flamegraph_lines(two_proc_trace())
        assert "npu;c0;l0;sg0 1000000000" in lines
        assert "cpu;c0;l0;sync 500000000" in lines
        assert lines == sorted(lines)

    def test_repeated_stacks_accumulate(self):
        t = Trace()
        t.add(TraceEvent("c0.l0", "cpu", 0.0, 1.0))
        t.add(TraceEvent("c0.l0", "cpu", 1.0, 3.0))
        assert flamegraph_lines(t) == ["cpu;c0;l0 3000000000"]


class TestEnergyAttribution:
    def test_absent_processors_draw_pure_idle(self):
        device = get_device("Redmi K70 Pro")
        energy = attribute_energy(two_proc_trace(), device)
        # the gpu never appears in the trace: idle draw over the window
        gpu = energy["per_processor"]["gpu"]
        assert gpu["tags"] == {}
        assert gpu["idle_j"] == pytest.approx(
            device.processors["gpu"].idle_power_w * 3.0
        )

    def test_window_shorter_than_makespan_rejected(self):
        device = get_device("Redmi K70 Pro")
        with pytest.raises(ProfileError):
            attribute_energy(two_proc_trace(), device, window_s=1.0)

    def test_components_sum_to_total(self):
        device = get_device("Redmi K70 Pro")
        energy = attribute_energy(two_proc_trace(), device, window_s=4.0)
        attributed = energy["platform_j"] + sum(
            0.0 + p["total_j"] for p in energy["per_processor"].values()
        )
        assert attributed == pytest.approx(energy["total_j"], abs=1e-12)
        assert energy["platform_j"] == pytest.approx(
            device.platform_power_w * 4.0
        )


class TestMergeProfiles:
    def test_windows_and_busy_add(self):
        a = profile_trace(two_proc_trace(), prep_s=0.5)
        b = profile_trace(two_proc_trace())
        merged = merge_profiles([a, b])
        assert merged.window_s == pytest.approx(a.window_s + b.window_s)
        assert merged.n_traces == 2
        assert merged.processor("npu").busy_s == pytest.approx(4.0)
        validate_profile(merged)

    def test_absent_processor_charged_as_starvation(self):
        cpu_only = Trace()
        cpu_only.add(TraceEvent("x", "cpu", 0.0, 2.0))
        merged = merge_profiles([
            profile_trace(two_proc_trace()),
            profile_trace(cpu_only),
        ])
        npu = merged.processor("npu")
        # the npu never appeared in the 2 s cpu-only window
        assert npu.idle_by_cause["starvation"] == pytest.approx(2.0)
        validate_profile(merged)

    def test_flamegraph_weights_add(self):
        a = profile_trace(two_proc_trace())
        merged = merge_profiles([a, a])
        assert "npu;c0;l0;sg0 2000000000" in merged.flamegraph

    def test_mixed_energy_rejected(self):
        device = get_device("Redmi K70 Pro")
        with_energy = profile_trace(two_proc_trace(), device=device)
        without = profile_trace(two_proc_trace())
        with pytest.raises(ProfileError):
            merge_profiles([with_energy, without])

    def test_empty_rejected(self):
        with pytest.raises(ProfileError):
            merge_profiles([])


@pytest.fixture(scope="module")
def engine_profile():
    from repro.core import LlmNpuEngine
    engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
    inference = engine.infer(64, 2)
    report = profile_inference(
        inference, engine.device,
        float_backend=engine.config.float_backend,
        decode_backend=engine.config.decode_backend,
    )
    return engine, inference, report


class TestProfileInference:
    def test_window_is_e2e_latency(self, engine_profile):
        _engine, inference, report = engine_profile
        assert report.window_s == pytest.approx(inference.e2e_latency_s,
                                                abs=1e-9)

    def test_energy_reconciles_with_engine(self, engine_profile):
        """The tentpole invariant: per-event attribution replays the
        engine's power model exactly."""
        _engine, inference, report = engine_profile
        assert math.isclose(report.total_energy_j,
                            inference.energy.total_j, abs_tol=1e-9)

    def test_conservation(self, engine_profile):
        _engine, _inference, report = engine_profile
        validate_profile(report)

    def test_json_is_deterministic_and_schema_clean(self, engine_profile,
                                                    tmp_path, capsys):
        _engine, _inference, report = engine_profile
        assert report.to_json() == report.to_json()
        doc = json.loads(report.to_json())
        assert doc["schema"] == "repro.profile/v1"
        path = str(tmp_path / "profile.json")
        write_text(path, report.to_json())
        assert main(["validate", path]) == 0, capsys.readouterr().err

    def test_schema_checker_rejects_broken_conservation(self,
                                                        engine_profile,
                                                        tmp_path, capsys):
        _engine, _inference, report = engine_profile
        doc = report.to_dict()
        doc["processors"][0]["busy_s"] += 1.0
        path = str(tmp_path / "broken.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        assert main(["validate", path]) == 2
        assert "busy + idle != window" in capsys.readouterr().err


class TestServiceProfile:
    @pytest.fixture(scope="class")
    def golden(self):
        from repro.eval.profiling import service_profile_report
        return service_profile_report(seed=42)

    def test_conservation_over_golden_workload(self, golden):
        report, _service = golden
        validate_profile(report)
        for p in report.processors:
            assert p.busy_s + p.idle_s == pytest.approx(
                report.window_s, abs=1e-9 * max(1, report.n_traces)
            )

    def test_energy_reconciles_with_service_totals(self, golden):
        report, service = golden
        expected = sum(
            r.report.energy.total_j for r in service.requests
            if r.status == "completed" and r.report is not None
        )
        assert math.isclose(report.total_energy_j, expected,
                            rel_tol=0.0, abs_tol=1e-6)

    def test_metrics_snapshot_attached(self, golden):
        report, _service = golden
        assert report.metrics is not None
        assert any(r["kind"] == "histogram" for r in report.metrics)

    def test_operator_and_energy_tables_render(self, golden):
        from repro.eval.profiling import energy_table, operator_table
        report, _service = golden
        assert "sync" in operator_table(report).render()
        assert "platform" in energy_table(report).render()
