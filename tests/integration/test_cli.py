"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, load_driver, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp in ("fig14", "table6", "fig19"):
            assert exp in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_infer_defaults(self, capsys):
        assert main(["infer", "--prompt-tokens", "256",
                     "--output-tokens", "1"]) == 0
        out = capsys.readouterr().out
        assert "llm.npu" in out
        assert "tok/s" in out

    def test_infer_custom_model(self, capsys):
        assert main(["infer", "--model", "Gemma-2B",
                     "--prompt-tokens", "256", "--output-tokens", "0",
                     "--pruning-rate", "0.5"]) == 0
        assert "Gemma-2B" in capsys.readouterr().out

    def test_run_quick_experiment(self, capsys):
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "per-tensor" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "table3", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Figure 8" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExperimentRegistry:
    def test_registry_complete(self):
        # every table and figure of the evaluation section (14) plus the
        # extension ablations, the calibration dashboard, the
        # service-layer experiments (incl. service-batching), fleet-slo,
        # dma-overlap, the critical-path trio (service-critpath,
        # dma-ablation, stage-crossover), and diff-eval
        assert len(EXPERIMENTS) == 35
        paper = [n for n in EXPERIMENTS
                 if n.startswith(("fig", "table"))]
        assert len(paper) == 14

    def test_descriptions_nonempty(self):
        for name, (desc, _driver) in EXPERIMENTS.items():
            assert desc
            assert callable(load_driver(name))

    def test_drivers_load_only_when_run(self):
        # Fresh interpreters: the CLI table imports no driver module,
        # and one driver module does not pull in the unrelated ones.
        import os
        import subprocess
        import sys

        import repro
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        probe = ("import sys, {module}; print(sorted(m for m in {names} "
                 "if m in sys.modules))")
        for module, names in (
                ("repro.cli", ["repro.eval.accuracy", "repro.eval.latency",
                               "repro.eval.ablation",
                               "repro.eval.simbench"]),
                ("repro.eval.fleet", ["repro.eval.accuracy"])):
            out = subprocess.run(
                [sys.executable, "-c",
                 probe.format(module=module, names=names)],
                capture_output=True, text=True, check=True,
                env=env).stdout
            assert out.strip() == "[]", (module, out)


class TestQuantizeCommand:
    def test_synthetic_quantize_roundtrip(self, tmp_path, capsys):
        import os
        out = os.path.join(tmp_path, "q.npz")
        assert main(["quantize", "--output", out,
                     "--scheme", "llm.npu"]) == 0
        stdout = capsys.readouterr().out
        assert "teacher-agreement" in stdout
        assert os.path.exists(out)

class TestProfileCommand:
    def test_single_inference_profile(self, tmp_path, capsys):
        import json
        import os
        profile_path = os.path.join(tmp_path, "profile.json")
        flame_path = os.path.join(tmp_path, "stacks.txt")
        assert main(["profile", "--prompt-tokens", "64",
                     "--output-tokens", "2",
                     "--profile-out", profile_path,
                     "--flamegraph-out", flame_path]) == 0
        out = capsys.readouterr().out
        assert "Per-processor attribution" in out
        assert "roofline" in out
        with open(profile_path) as f:
            doc = json.load(f)
        assert doc["schema"] == "repro.profile/v1"
        with open(flame_path) as f:
            lines = f.read().splitlines()
        assert lines and all(line.rsplit(" ", 1)[1].isdigit()
                             for line in lines)

    def test_service_profile_experiment(self, capsys):
        assert main(["run", "service-profile"]) == 0
        out = capsys.readouterr().out
        assert "golden service workload" in out
        assert "Energy attribution" in out


class TestBenchCompareCommand:
    def _artifact(self, tmp_path, name, e2e):
        from repro.eval.report import Table
        from repro.obs import make_artifact, write_text
        table = Table(title="t", columns=["config", "e2e s"])
        table.add_row("baseline", e2e)
        return write_text(str(tmp_path / f"BENCH_{name}.json"),
                          make_artifact("t", table, env={}).to_json())

    def test_identical_artifacts_pass(self, tmp_path, capsys):
        base = self._artifact(tmp_path, "a", 2.0)
        assert main(["bench-compare", base, base]) == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_regression_fails(self, tmp_path, capsys):
        base = self._artifact(tmp_path, "a", 2.0)
        cand = self._artifact(tmp_path, "b", 2.2)  # +10% > 5% tolerance
        assert main(["bench-compare", base, cand]) == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "FAIL" in captured.err

    def test_loose_tolerance_passes(self, tmp_path):
        base = self._artifact(tmp_path, "a", 2.0)
        cand = self._artifact(tmp_path, "b", 2.2)
        assert main(["bench-compare", "--rel-tol", "0.2",
                     base, cand]) == 0

    def test_unreadable_artifact_is_usage_error(self, tmp_path, capsys):
        base = self._artifact(tmp_path, "a", 2.0)
        assert main(["bench-compare", base,
                     str(tmp_path / "missing.json")]) == 2
        assert "bench-compare" in capsys.readouterr().err

    def test_empty_baseline_dir_is_usage_error(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        candidate = tmp_path / "candidate"
        baseline.mkdir()
        candidate.mkdir()
        assert main(["bench-compare", str(baseline), str(candidate)]) == 2
        assert "no BENCH_*.json artifacts" in capsys.readouterr().err


class TestFleetCommands:
    def test_fleet_writes_valid_artifacts(self, tmp_path, capsys):
        report_path = tmp_path / "fleet_report.json"
        alerts_path = tmp_path / "fleet_alerts.json"
        assert main(["fleet", "--devices", "3", "--seed", "42",
                     "--report-out", str(report_path),
                     "--alerts-out", str(alerts_path)]) == 0
        out = capsys.readouterr().out
        assert "Fleet percentiles" in out
        assert "dev02-budget" in out
        import json
        from repro.eval.fleet import FLEET_SCHEMA
        from repro.obs import validate_timeline_doc
        report = json.loads(report_path.read_text())
        assert report["schema"] == FLEET_SCHEMA
        validate_timeline_doc(json.loads(alerts_path.read_text()))

    def test_monitor_writes_valid_timeline(self, tmp_path, capsys):
        alerts_path = tmp_path / "storm_alerts.json"
        assert main(["monitor", "--seed", "42",
                     "--alerts-out", str(alerts_path)]) == 0
        out = capsys.readouterr().out
        assert "burn" in out
        import json
        from repro.obs import validate_timeline_doc
        doc = json.loads(alerts_path.read_text())
        validate_timeline_doc(doc)
        assert any(inc["firing_s"] is not None for inc in doc["incidents"])

    def test_fleet_slo_experiment_runs(self, capsys):
        assert main(["run", "fleet-slo"]) == 0
        out = capsys.readouterr().out
        assert "Fleet percentiles" in out
        assert "SLO compliance" in out


class TestQuantizeCommandCheckpoint:
    def test_checkpoint_workflow(self, tmp_path, capsys):
        # save float checkpoint -> quantize via CLI -> reload
        import os
        from repro.model import build_synthetic_model, tiny_config
        from repro.model.io import save_model, load_model
        from repro.quant import load_quantized
        cfg = tiny_config(n_layers=4)
        float_path = os.path.join(tmp_path, "float.npz")
        q_path = os.path.join(tmp_path, "quant.npz")
        save_model(build_synthetic_model(cfg, seed=5), float_path)
        assert main(["quantize", "--input", float_path,
                     "--output", q_path, "--scheme", "per-tensor"]) == 0
        target = load_model(float_path)
        assert len(load_quantized(target, q_path)) == 4 * 7


class TestCliErrorPaths:
    @pytest.mark.parametrize("argv, message", [
        (["infer", "--prompt-tokens", "0"],
         "infer: prompt_tokens must be positive"),
        (["infer", "--model", "nope"], "infer: unknown model 'nope'"),
        (["profile", "--prompt-tokens", "-5"],
         "profile: prompt_tokens must be positive"),
        (["quantize", "--output", "{tmp}/q.npz", "--pruning-rate", "3"],
         "quantize: pruning_rate must be in [0, 1]"),
        (["quantize", "--input", "{tmp}/missing.npz",
          "--output", "{tmp}/q.npz"],
         "quantize: cannot read checkpoint {tmp}/missing.npz"),
    ])
    def test_library_error_is_usage_error(self, argv, message, tmp_path,
                                          capsys):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message.format(tmp=tmp_path))
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["fleet", "--seed", "-1"],
        ["critpath", "--seed", "-1"],
        ["explain", "--seed", "-1"],
        ["profile", "--seed", "-1"],
        ["monitor", "--seed", "-1"],
        ["trace", "--seed", "x"],
        ["quantize", "--output", "q.npz", "--seed", "-1"],
        ["critpath", "--prompt-tokens", "300", "--top", "-1"],
        ["profile", "--top", "-1"],
        ["diff", "a.json", "b.json", "--top", "-1"],
    ])
    def test_negative_count_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected a non-negative integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fleet", "critpath"])
    def test_seeding_option_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seeding=splitmix"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seeding" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--fleet", "1"],
                                      ["--prompt-tokens", "300"]])
    def test_critpath_request_id_with_other_mode_is_usage_error(
            self, mode, capsys):
        # The positional request narrates a golden-workload request; the
        # fleet and single-inference modes used to drop it silently.
        assert main(["critpath", *mode, "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("critpath: request_id narrates a "
                              "golden-workload request")
        assert err.count("\n") == 1

    def test_fleet_zero_devices_is_usage_error(self, capsys):
        assert main(["fleet", "--devices", "0"]) == 2
        err = capsys.readouterr().err
        assert "fleet:" in err
        assert "at least one device" in err

    def test_monitor_bad_fault_rate_is_usage_error(self, capsys):
        assert main(["monitor", "--transient-rate", "2.0"]) == 2
        err = capsys.readouterr().err
        assert "monitor:" in err
        assert "transient_rate" in err

    def test_explain_unknown_request_id(self, capsys):
        assert main(["explain", "99999", "--batched"]) == 2
        err = capsys.readouterr().err
        assert "explain:" in err
        assert "unknown request id" in err

    def test_explain_missing_steplog_file(self, tmp_path, capsys):
        assert main(["explain", "--steplog",
                     str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "explain:" in err
        assert "cannot read" in err

    def test_explain_invalid_steplog_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["explain", "--steplog", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_explain_empty_steplog_doc(self, tmp_path, capsys):
        import json
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({}))
        assert main(["explain", "--steplog", str(path)]) == 2
        assert "expected schema" in capsys.readouterr().err


class TestExplainCommand:
    def test_table_mode(self, capsys):
        assert main(["explain", "--batched"]) == 0
        out = capsys.readouterr().out
        assert "Wait attribution" in out
        assert "top blocker" in out

    def test_single_request_narrative(self, capsys):
        assert main(["explain", "7", "--batched"]) == 0
        out = capsys.readouterr().out
        assert "request 00007" in out
        assert "decisions:" in out
        assert "reconciliation:" in out

    def test_steplog_out_roundtrip(self, tmp_path, capsys):
        import json
        from repro.obs import validate_steps_doc
        path = tmp_path / "steps.json"
        assert main(["explain", "--batched",
                     "--steplog-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        validate_steps_doc(doc)
        assert doc["n_steps"] > 0
        # the written file feeds back through --steplog
        assert main(["explain", "7", "--steplog", str(path)]) == 0
        assert "request 00007" in capsys.readouterr().out


class TestGzipOutputs:
    """A ``.gz`` output path gets real gzip that ``llmnpu validate``
    reads back, whichever command and flag wrote it."""

    @pytest.mark.parametrize("argv", [
        ["infer", "--prompt-tokens", "256", "--output-tokens", "2",
         "--metrics-out"],
        ["trace", "--trace-out", "trace.json", "--metrics-out"],
        ["profile", "--profile-out"],
        ["run", "critpath", "--critpath-out"],
        ["run", "service-breakdown", "--metrics-out"],
    ], ids=["infer-metrics", "trace-metrics", "profile", "run-critpath",
            "run-service-breakdown-metrics"])
    def test_gz_output_is_gzip_and_validates(self, argv, tmp_path,
                                             monkeypatch, capsys):
        import gzip
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "out.json.gz"
        assert main(argv + [str(path)]) == 0
        with gzip.open(path, "rt", encoding="utf-8") as f:
            assert f.read().endswith("\n")
        capsys.readouterr()
        assert main(["validate", str(path)]) == 0, capsys.readouterr().err


class TestInferTraceOut:
    """``infer --trace-out`` writes the inference's hardware timeline:
    one ``hw <model>`` span per prefill task and per decode step."""

    @pytest.mark.parametrize("name", ["infer.json", "infer.json.gz"])
    def test_trace_holds_prefill_tasks_and_decode_steps(self, name,
                                                        tmp_path, capsys):
        import json
        from collections import Counter

        from repro.core import LlmNpuEngine
        from repro.obs import open_text, validate_timeline
        path = str(tmp_path / name)
        assert main(["infer", "--prompt-tokens", "256",
                     "--output-tokens", "3", "--trace-out", path]) == 0
        assert main(["validate", path]) == 0, capsys.readouterr().err
        with open_text(path) as f:
            events = json.load(f)
        validate_timeline(events)

        args = build_parser().parse_args(["infer"])
        report = LlmNpuEngine.build(
            args.model, args.device, pruning_rate=args.pruning_rate,
            chunk_len=args.chunk_len).infer(256, 3)
        procs = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        spans = [e for e in events if e["ph"] == "X"]
        assert {procs[e["pid"]] for e in spans} == {f"hw {args.model}"}
        assert Counter(e["name"] for e in spans) == Counter(
            [ev.task_id for ev in report.prefill.trace.events]
            + ["decode.t0", "decode.t1", "decode.t2"])
