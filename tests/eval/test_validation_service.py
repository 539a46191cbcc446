"""Tests for the calibration dashboard and service-load drivers."""

import pytest

from repro.eval.service_eval import service_engine_comparison, service_load
from repro.eval.validation import ANCHORS, Anchor, calibration_dashboard


class TestAnchors:
    def test_twelve_anchors(self):
        assert len(ANCHORS) == 12

    def test_anchor_statuses(self):
        good = Anchor("x", "p", lambda: 5.0, 4.0, 6.0)
        assert good.evaluate() == (5.0, "PASS")
        near = Anchor("x", "p", lambda: 6.5, 4.0, 6.0)
        assert near.evaluate()[1] == "NEAR"
        bad = Anchor("x", "p", lambda: 60.0, 4.0, 6.0)
        assert bad.evaluate()[1] == "FAIL"

    def test_dashboard_all_pass(self):
        table = calibration_dashboard()
        statuses = table.column("status")
        assert statuses.count("FAIL") == 0
        assert statuses.count("PASS") >= 10

    def test_dashboard_subset(self):
        table = calibration_dashboard(anchors=ANCHORS[:3])
        assert len(table.rows) == 3


class TestServiceDrivers:
    def test_load_sweep_shape(self):
        table = service_load(inter_arrival_s=(8.0, 0.5), n_requests=6)
        queueing = table.column("mean queueing s")
        assert queueing[0] == 0
        assert queueing[-1] > 0

    def test_throughput_saturates(self):
        table = service_load(inter_arrival_s=(4.0, 0.25), n_requests=8)
        rps = table.column("throughput req/s")
        # at saturation, throughput is capped by the service time, far
        # below the offered 4 req/s
        assert rps[-1] < 2.0

    def test_engine_comparison(self):
        table = service_engine_comparison(n_requests=5)
        ours = table.row_by_key("llm.npu service")
        base = table.row_by_key("llama.cpp service")
        assert base[1] > ours[1]
        assert base[3] > ours[3]


class TestReportGeneration:
    def test_subset_report(self, tmp_path):
        import os
        from repro.eval.latency import table3_matmul
        from repro.eval.summary import generate_report
        path = os.path.join(tmp_path, "r.md")
        out = generate_report(path=path,
                              experiments={"table3": table3_matmul})
        assert out == path
        text = open(path).read()
        assert "## table3" in text
        assert "| engine |" in text

    def test_skip_list(self, tmp_path):
        import os
        from repro.eval.latency import table3_matmul
        from repro.eval.summary import generate_report
        path = os.path.join(tmp_path, "r.md")
        generate_report(path=path,
                        experiments={"table3": table3_matmul},
                        skip=("table3",))
        assert "_skipped_" in open(path).read()

    def test_tuple_results_render(self, tmp_path):
        import os
        from repro.eval.accuracy import fig12_importance
        from repro.eval.summary import generate_report
        path = os.path.join(tmp_path, "r.md")
        generate_report(
            path=path,
            experiments={"fig12": lambda: fig12_importance(
                pruning_rates=(0.0,), benchmarks=("winogrande",),
                n_items_scale=0.125,
            )},
        )
        text = open(path).read()
        assert "Figure 12 (left)" in text
        assert "Figure 12 (right)" in text
