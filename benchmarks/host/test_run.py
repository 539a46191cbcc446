"""Tests of the host-cost benchmark; run with ``pytest benchmarks/host``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "host" / "run.py"),
         *args], cwd=root, capture_output=True, text=True, timeout=600)


def _last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy_benchmark(dst: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    shutil.copytree(HERE, dst / "benchmarks" / "host",
                    ignore=shutil.ignore_patterns("expected", "__pycache__"))
    if with_src:
        (dst / "src").symlink_to(ROOT / "src")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_every_op(workload, tmp_path):
    out = tmp_path / "result.json"
    line = _last_json(_bench("--workload", workload, "--seed", "0",
                             "--ops", "3", "--out", str(out)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) \
        == (True, 3, 0)
    assert [(name, m["unit"]) for name, m in line["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    child = json.loads(out.read_text())["workloads"][workload]["detail"][
        "child"]
    assert child["checked_against_expected"] == 3


def test_traced_run_conserves_time_and_digests(tmp_path):
    out = tmp_path / "traced.json"
    trace_out = tmp_path / "spans.json"
    line = _last_json(_bench("--workload", "postmortem", "--seed", "1",
                             "--ops", "3", "--trace", "1", "--out", str(out),
                             "--trace-out", str(trace_out)))
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    detail = json.loads(out.read_text())["workloads"]["postmortem"]["detail"]
    trace = detail["traced"]["trace"]
    assert trace["ops"] == 3 and not trace["missing"]
    assert abs(sum(trace["self_s"].values()) - trace["wall_s"]) \
        <= bench.CONSERVATION_TOL_S
    assert abs(detail["conservation_residual_s"]) <= bench.CONSERVATION_TOL_S
    assert detail["traced"]["digests"] == detail["base"]["digests"]
    for layer in ("hw.sim.run", "obs.critical_path", "obs.whatif",
                  "obs.diff", "serialize"):
        assert trace["self_s"][layer] > 0, layer
    events = json.loads(trace_out.read_text())["traceEvents"]
    assert {e["name"] for e in events} >= {"other", "hw.sim.run"}
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_wrappers_reach_copied_references():
    import repro.core
    import repro.core.engine
    import repro.core.pipeline
    import repro.eval.diff_eval
    originals = (repro.core.pipeline.run_prefill,
                 sys.modules["repro.obs.critical_path"].critical_path)
    recorder = spans.Recorder().install()
    try:
        assert not recorder.missing
        for copy in (repro.core.run_prefill, repro.core.engine.run_prefill,
                     repro.core.pipeline.build_task_graph,
                     repro.eval.diff_eval.critical_path,
                     repro.core.engine.LlmNpuEngine.infer):
            assert hasattr(copy, "__wrapped__"), copy
    finally:
        recorder.uninstall()
    assert repro.core.engine.run_prefill is originals[0]
    assert repro.eval.diff_eval.critical_path is originals[1]
    assert not hasattr(repro.core.engine.LlmNpuEngine.infer, "__wrapped__")


def test_absent_wrapped_name_reads_null(capsys):
    layers = dict(spans.LAYERS)
    layers["obs.whatif"] = (("repro.obs.whatif", "no_such_function"),)
    recorder = spans.Recorder(layers=layers).install()
    try:
        recorder.run_op(lambda: None)
    finally:
        recorder.uninstall()
    assert recorder.missing == ["repro.obs.whatif.no_such_function"]
    assert "no_such_function" in capsys.readouterr().err
    timing = {"op_s": [0.1], "cal_s": [1e-3, 1e-3]}
    metrics = bench.per_layer_metrics(
        timing, dict(timing, graph_cache=None, trace=recorder.summary()))
    assert metrics["obs.whatif.self_s"] is None
    assert metrics["obs.diff.self_s"] == 0.0


def test_wrong_expected_digest_counts_as_failed_op(tmp_path):
    _copy_benchmark(tmp_path, with_src=True)
    expected = tmp_path / "benchmarks" / "host" / "expected"
    expected.mkdir()
    (expected / "seed0.json").write_text(json.dumps(
        {"seed": 0, "digests": {"serve_steploop": ["0" * 64]}}))
    line = _last_json(_bench("--workload", "serve_steploop", "--seed", "0",
                             "--ops", "2", root=tmp_path))
    assert (line["correct"], line["attempted"], line["failed"]) \
        == (False, 2, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_src=False)
    proc = _bench("--workload", "fleet", "--seed", "0", "--seconds", "1",
                  root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{")
                   for line in proc.stdout.splitlines())


def _result(throughput: float) -> dict:
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    metrics["throughput_ops_s"]["value"] = throughput
    return {"workloads": {"fleet": {"correct": True, "attempted": 10,
                                    "failed": 0, "metrics": metrics}}}


def test_compare_exits_one_on_a_bound_violation(tmp_path, capsys):
    base, same, slow = (tmp_path / n for n in ("a.json", "b.json",
                                               "c.json"))
    base.write_text(json.dumps(_result(10.0)))
    same.write_text(json.dumps(_result(9.5)))
    slow.write_text(json.dumps(_result(8.0)))
    assert bench.compare(base, same) == 0
    assert bench.compare(base, slow) == 1
    assert "REGRESSED" in capsys.readouterr().out
