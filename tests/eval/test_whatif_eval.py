"""Critical-path / what-if experiment drivers over the golden workload.

Pins the artifact's determinism + schema shape, the per-request
attribution facts, the calibration contract (what-if columns match
measured rebuilds to sub-nanosecond error), and the fleet roll-up's
opt-in behavior — critpath telemetry must never perturb the committed
``repro.fleet/v1`` golden bytes.
"""

import json

import pytest

from repro.errors import ReproError
from repro.eval.fleet import default_fleet, fleet_critpath_table, fleet_report
from repro.eval.whatif_eval import (
    critpath_request_table,
    critpath_stage_table,
    dma_ablation,
    golden_critpath_doc,
    golden_critpath_json,
    service_critical_paths,
    stage_crossover,
)
from repro.obs import CRITPATH_SCHEMA, validate_critical_path


@pytest.fixture(scope="module")
def golden_paths():
    paths, _service = service_critical_paths(seed=42)
    return paths


class TestGoldenArtifact:
    def test_every_completed_request_has_a_valid_path(self, golden_paths):
        assert len(golden_paths) == 19
        for path in golden_paths:
            assert path.source.startswith("request ")
            validate_critical_path(path)

    def test_doc_is_deterministic_and_schema_stamped(self, golden_paths):
        doc = golden_critpath_doc(seed=42)
        assert doc["schema"] == CRITPATH_SCHEMA
        assert doc["n_paths"] == len(golden_paths)
        # two independent evaluations serialize byte-identically
        assert golden_critpath_json(seed=42) == golden_critpath_json(
            seed=42)
        # and the JSON round-trips the doc exactly (allow_nan=False
        # guarantees no NaN leaks into the artifact)
        assert json.loads(golden_critpath_json(seed=42)) == json.loads(
            json.dumps(doc, sort_keys=True))

    def test_stage_table_partitions_e2e(self, golden_paths):
        table = critpath_stage_table(golden_paths)
        assert abs(sum(table.column("share of e2e %")) - 100.0) < 1e-6
        assert "queued" in table.column("stage")

    def test_request_table_shape(self, golden_paths):
        table = critpath_request_table(golden_paths)
        assert len(table.rows) == len(golden_paths)
        assert all(0.0 <= s <= 100.0
                   for s in table.column("service share %"))


class TestCalibration:
    def test_dma_ablation_whatif_matches_measured(self):
        table = dma_ablation(prompt_len=256, buffer_depths=(1, 2))
        # |measured - predicted| is in nanoseconds and must round to
        # (well under) one — the ISSUE's 1e-9 s acceptance bound
        assert all(err <= 1.0 for err in table.column("|error| ns"))
        measured = table.column("measured ms")
        assert measured[1] > measured[2] >= measured[0]  # serial slowest

    def test_stage_crossover_predicts_the_switch(self):
        table = stage_crossover(prompt_lens=(64, 1024))
        winners = table.column("winner")
        assert set(winners) == {"cpu", "gpu"}
        assert all(err < 5.0 for err in table.column("pred err %"))


class TestFleetRollup:
    @pytest.fixture(scope="class")
    def specs(self):
        return default_fleet(n_devices=2, seed=42)

    def test_critpath_is_opt_in(self, specs):
        plain = fleet_report(specs=specs, seed=42)
        assert "critpath" not in plain
        with pytest.raises(ReproError, match="critpath=True"):
            fleet_critpath_table(plain)

    def test_rollup_adds_only_the_critpath_section(self, specs):
        plain = fleet_report(specs=specs, seed=42)
        enriched = fleet_report(specs=specs, seed=42, critpath=True)
        section = enriched.pop("critpath")
        # byte-stability of the legacy report: everything else is
        # unchanged, so committed fleet goldens cannot drift
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            enriched, sort_keys=True)
        assert section
        for key, snap in section.items():
            assert key.startswith("critpath.")
            assert snap["count"] > 0
            assert snap["sum"] >= 0.0

    def test_table_ranks_by_total_gated_time(self, specs):
        report = fleet_report(specs=specs, seed=42, critpath=True)
        table = fleet_critpath_table(report, top=5)
        totals = table.column("total gated s")
        assert totals == sorted(totals, reverse=True)
        assert len(table.rows) <= 5
        # stage names are stripped of the sketch-key prefix
        assert all(not s.startswith("critpath.")
                   for s in table.column("stage"))
