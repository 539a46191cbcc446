"""Tests for benchmark artifacts and the noise-aware comparison gate.

The acceptance bar: identical runs always compare clean, and an
injected 10% latency regression is always caught at the default 5%
tolerance.
"""

import json

import pytest

from repro.eval.report import Table
from repro.obs import (
    ArtifactError,
    BenchArtifact,
    benchdiff_doc,
    benchdiff_json,
    capture_env,
    compare_artifacts,
    compare_paths,
    load_artifact,
    make_artifact,
    metric_direction,
    metrics_from_table,
    write_text,
)


def latency_table(e2e=2.0, throughput=100.0):
    table = Table(title="Latency sweep",
                  columns=["config", "e2e s", "tok/s", "requests"])
    table.add_row("baseline", e2e, throughput, 8)
    table.add_row("chunked", e2e / 2, throughput * 2, 8)
    return table


class TestMetricDirection:
    @pytest.mark.parametrize("column,expected", [
        ("tok/s", "higher"),
        ("prefill tok/s", "higher"),
        ("throughput", "higher"),
        ("completion %", "higher"),
        ("npu util %", "higher"),
        ("e2e s", "lower"),
        ("p95 turnaround s", "lower"),
        ("latency ms", "lower"),
        ("energy J", "lower"),
        ("busy ms", "lower"),      # bare time-unit suffix
        ("bubble %", "lower"),
        ("requests", "info"),      # unrecognized -> never gated
        ("config", "info"),
    ])
    def test_inference(self, column, expected):
        assert metric_direction(column) == expected

    def test_per_second_not_confused_with_seconds(self):
        # 'tok/s' must match the higher hints before the ' s' suffix
        assert metric_direction("decode tok/s") == "higher"
        assert metric_direction("decode s") == "lower"


class TestMetricsFromTable:
    def test_string_cells_label_the_row(self):
        metrics = metrics_from_table(latency_table())
        assert metrics["baseline.e2e_s"]["value"] == 2.0
        assert metrics["baseline.e2e_s"]["direction"] == "lower"
        assert metrics["chunked.tok_s"]["direction"] == "higher"

    def test_all_numeric_rows_use_first_cell(self):
        table = Table(title="sweep", columns=["rate", "latency s"])
        table.add_row(0.5, 1.0)
        table.add_row(2.0, 4.0)
        metrics = metrics_from_table(table)
        assert "0.5.latency_s" in metrics
        assert "2.0.latency_s" in metrics

    def test_duplicate_labels_rejected(self):
        table = Table(title="dup", columns=["name", "x s"])
        table.add_row("a", 1.0)
        table.add_row("a", 2.0)
        with pytest.raises(ArtifactError):
            metrics_from_table(table)

    def test_bools_and_strings_skipped(self):
        table = Table(title="t", columns=["name", "ok", "n"])
        table.add_row("a", True, 3)
        metrics = metrics_from_table(table)
        assert list(metrics) == ["a.n"]


class TestArtifactIO:
    def test_round_trip(self, tmp_path):
        artifact = make_artifact("smoke", latency_table(),
                                 env={"git_sha": "abc"})
        path = write_text(str(tmp_path / "BENCH_smoke.json"),
                          artifact.to_json())
        loaded = load_artifact(path)
        assert loaded.name == "smoke"
        assert loaded.metrics == artifact.metrics
        assert loaded.env == {"git_sha": "abc"}

    def test_multi_table_namespacing(self):
        a = latency_table()
        b = Table(title="Energy", columns=["config", "energy J"])
        b.add_row("baseline", 30.0)
        artifact = make_artifact("combo", [a, b])
        assert "latency_sweep.baseline.e2e_s" in artifact.metrics
        assert "energy.baseline.energy_j" in artifact.metrics

    def test_no_tables_rejected(self):
        with pytest.raises(ArtifactError):
            make_artifact("empty", [])

    def test_env_is_string_valued(self):
        env = capture_env()
        assert set(env) == {"git_sha", "python", "platform"}
        assert all(isinstance(v, str) for v in env.values())

    def test_json_is_deterministic(self):
        artifact = make_artifact("d", latency_table(), env={})
        assert artifact.to_json() == artifact.to_json()

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v1", "metrics": {}}))
        with pytest.raises(ArtifactError):
            load_artifact(str(path))

    def test_load_rejects_malformed_metric(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": "repro.bench/v1", "name": "x",
            "metrics": {"m": {"value": "fast", "direction": "lower"}},
            "env": {},
        }))
        with pytest.raises(ArtifactError):
            load_artifact(str(path))


class TestBenchCompareHostileCandidates:
    """``llmnpu bench-compare`` reads artifacts through the bench
    validator: a non-finite metric is a usage error (exit 2), and a
    gzipped artifact is read, not rejected."""

    def _paths(self, tmp_path):
        artifact = make_artifact("run", latency_table(), env={})
        return artifact, write_text(str(tmp_path / "BENCH_run.json"),
                                   artifact.to_json())

    def test_nan_metric_value_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import validate_bench_doc
        artifact, base = self._paths(tmp_path)
        doc = artifact.to_dict()
        doc["metrics"]["baseline.e2e_s"]["value"] = float("nan")
        with pytest.raises(ArtifactError, match="finite"):
            validate_bench_doc(doc)
        cand = tmp_path / "nan.json"
        cand.write_text(json.dumps(doc))  # json writes NaN unless told not to
        with pytest.raises(ArtifactError):
            load_artifact(str(cand))
        assert main(["bench-compare", base, str(cand)]) == 2
        assert "bench-compare" in capsys.readouterr().err

    def test_gzipped_artifact_is_read(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import open_text
        artifact, base = self._paths(tmp_path)
        packed = str(tmp_path / "BENCH_run.json.gz")
        with open_text(packed, "w") as f:
            f.write(artifact.to_json())
        assert load_artifact(packed).metrics == artifact.metrics
        assert main(["bench-compare", base, packed]) == 0
        assert "OK" in capsys.readouterr().out


class TestCompare:
    def test_identical_runs_compare_clean(self):
        a = make_artifact("run", latency_table(), env={})
        b = make_artifact("run", latency_table(), env={"git_sha": "other"})
        comparison = compare_artifacts(a, b)
        assert comparison.ok
        assert all(d.verdict == "ok" for d in comparison.deltas)

    def test_ten_percent_latency_regression_caught(self):
        base = make_artifact("run", latency_table(e2e=2.0), env={})
        cand = make_artifact("run", latency_table(e2e=2.2), env={})
        comparison = compare_artifacts(base, cand)
        assert not comparison.ok
        regressed = {d.metric for d in comparison.regressions}
        assert "baseline.e2e_s" in regressed

    def test_ten_percent_throughput_drop_caught(self):
        base = make_artifact("run", latency_table(throughput=100.0), env={})
        cand = make_artifact("run", latency_table(throughput=90.0), env={})
        assert not compare_artifacts(base, cand).ok

    def test_within_tolerance_is_ok(self):
        base = make_artifact("run", latency_table(e2e=2.0), env={})
        cand = make_artifact("run", latency_table(e2e=2.04), env={})
        assert compare_artifacts(base, cand).ok

    def test_improvement_reported_not_failed(self):
        base = make_artifact("run", latency_table(e2e=2.0), env={})
        cand = make_artifact("run", latency_table(e2e=1.0), env={})
        comparison = compare_artifacts(base, cand)
        assert comparison.ok
        verdicts = {d.metric: d.verdict for d in comparison.deltas}
        assert verdicts["baseline.e2e_s"] == "improved"

    def test_info_metrics_never_gated(self):
        table = Table(title="t", columns=["name", "requests"])
        table.add_row("a", 8)
        base = make_artifact("run", table, env={})
        worse = Table(title="t", columns=["name", "requests"])
        worse.add_row("a", 80000)
        cand = make_artifact("run", worse, env={})
        comparison = compare_artifacts(base, cand)
        assert comparison.ok

    def test_missing_directional_metric_is_regression(self):
        base = make_artifact("run", latency_table(), env={})
        half = Table(title="Latency sweep",
                     columns=["config", "e2e s", "tok/s", "requests"])
        half.add_row("baseline", 2.0, 100.0, 8)  # 'chunked' row dropped
        cand = make_artifact("run", half, env={})
        comparison = compare_artifacts(base, cand)
        assert not comparison.ok
        assert any(d.verdict == "missing" for d in comparison.regressions)

    def test_new_metric_never_fails(self):
        half = Table(title="t", columns=["config", "e2e s"])
        half.add_row("baseline", 2.0)
        base = make_artifact("run", half, env={})
        cand = make_artifact("run", latency_table(), env={})
        comparison = compare_artifacts(base, cand)
        assert comparison.ok
        assert any(d.verdict == "new" for d in comparison.deltas)

    def test_negative_tolerance_rejected(self):
        a = make_artifact("run", latency_table(), env={})
        with pytest.raises(ArtifactError):
            compare_artifacts(a, a, rel_tol=-0.1)

    def test_delta_table_renders(self):
        base = make_artifact("run", latency_table(e2e=2.0), env={})
        cand = make_artifact("run", latency_table(e2e=2.2), env={})
        rendered = compare_artifacts(base, cand).table().render()
        assert "regressed" in rendered
        assert "baseline.e2e_s" in rendered


class TestComparePaths:
    def write(self, directory, name, **kwargs):
        artifact = make_artifact(name, latency_table(**kwargs), env={})
        return write_text(str(directory / f"BENCH_{name}.json"),
                          artifact.to_json())

    def test_file_mode(self, tmp_path):
        base = self.write(tmp_path, "a")
        cand = self.write(tmp_path, "b", e2e=2.5)
        assert not compare_paths(base, cand).ok

    def test_dir_mode_matches_by_name(self, tmp_path):
        base_dir, cand_dir = tmp_path / "base", tmp_path / "cand"
        base_dir.mkdir(), cand_dir.mkdir()
        self.write(base_dir, "x")
        self.write(cand_dir, "x")
        comparison = compare_paths(str(base_dir), str(cand_dir))
        assert comparison.ok
        assert all(d.metric.startswith("x.") for d in comparison.deltas)

    def test_missing_candidate_artifact_is_regression(self, tmp_path):
        base_dir, cand_dir = tmp_path / "base", tmp_path / "cand"
        base_dir.mkdir(), cand_dir.mkdir()
        self.write(base_dir, "x")
        comparison = compare_paths(str(base_dir), str(cand_dir))
        assert not comparison.ok
        assert comparison.regressions[0].verdict == "missing"

    def test_mixed_file_dir_rejected(self, tmp_path):
        base = self.write(tmp_path, "a")
        with pytest.raises(ArtifactError):
            compare_paths(base, str(tmp_path))

    def test_empty_baseline_dir_rejected(self, tmp_path):
        base_dir, cand_dir = tmp_path / "base", tmp_path / "cand"
        base_dir.mkdir(), cand_dir.mkdir()
        with pytest.raises(ArtifactError):
            compare_paths(str(base_dir), str(cand_dir))

    def test_committed_goldens_self_compare_clean(self):
        import os
        goldens = os.path.join(os.path.dirname(__file__), "..", "..",
                               "benchmarks", "results", "json")
        if not os.path.isdir(goldens):
            pytest.skip("no committed golden artifacts")
        assert compare_paths(goldens, goldens).ok


class TestBenchArtifactDataclass:
    def test_schema_stamped(self):
        artifact = BenchArtifact(name="x", metrics={}, env={})
        assert artifact.to_dict()["schema"] == "repro.bench/v1"


class TestZeroBaseline:
    """A zero-valued golden metric: the relative margin collapses to 0,
    so the absolute floor max(rel_tol * 0, abs_tol) = abs_tol is what
    gates — equal values pass, any movement past 1e-9 regresses."""

    @staticmethod
    def _tables(value):
        table = Table(title="t", columns=["config", "idle s"])
        table.add_row("run", value)
        return table

    def test_zero_golden_equal_candidate_ok(self):
        base = make_artifact("run", self._tables(0.0), env={})
        cand = make_artifact("run", self._tables(0.0), env={})
        comparison = compare_artifacts(base, cand)
        assert comparison.ok
        assert comparison.deltas[0].verdict == "ok"

    def test_zero_golden_tiny_drift_within_abs_floor_ok(self):
        base = make_artifact("run", self._tables(0.0), env={})
        cand = make_artifact("run", self._tables(5e-10), env={})
        assert compare_artifacts(base, cand).ok

    def test_zero_golden_real_movement_regresses(self):
        base = make_artifact("run", self._tables(0.0), env={})
        cand = make_artifact("run", self._tables(1e-6), env={})
        comparison = compare_artifacts(base, cand)
        assert not comparison.ok
        assert comparison.deltas[0].verdict == "regressed"

    def test_wider_abs_tol_absorbs_the_movement(self):
        base = make_artifact("run", self._tables(0.0), env={})
        cand = make_artifact("run", self._tables(1e-6), env={})
        assert compare_artifacts(base, cand, abs_tol=1e-3).ok


class TestBenchdiffDoc:
    """The machine-readable bench-compare report (repro.benchdiff/v1)."""

    def test_doc_shape_and_counts(self):
        base = make_artifact("run", latency_table(e2e=2.0), env={})
        cand = make_artifact("run", latency_table(e2e=2.2), env={})
        comparison = compare_artifacts(base, cand)
        doc = benchdiff_doc(comparison)
        assert doc["schema"] == "repro.benchdiff/v1"
        assert doc["ok"] is False
        assert doc["n_metrics"] == len(comparison.deltas)
        assert doc["n_regressed"] == len(comparison.regressions)
        metrics = {d["metric"]: d for d in doc["deltas"]}
        bad = metrics["baseline.e2e_s"]
        assert bad["verdict"] == "regressed"
        assert bad["baseline"] == pytest.approx(2.0)
        assert bad["candidate"] == pytest.approx(2.2)

    def test_json_is_deterministic_and_nan_free(self):
        base = make_artifact("run", latency_table(), env={})
        comparison = compare_artifacts(base, base)
        text = benchdiff_json(comparison)
        assert text == benchdiff_json(comparison)
        doc = json.loads(text)
        assert doc["ok"] is True
        assert doc["n_regressed"] == 0

    def test_new_and_missing_verdicts_survive_the_doc(self):
        half = Table(title="t", columns=["config", "e2e s"])
        half.add_row("baseline", 2.0)
        base = make_artifact("run", latency_table(), env={})
        cand = make_artifact("run", half, env={})
        doc = benchdiff_doc(compare_artifacts(base, cand))
        verdicts = {d["metric"]: d["verdict"] for d in doc["deltas"]}
        assert "missing" in verdicts.values()
        assert doc["n_regressed"] > 0
