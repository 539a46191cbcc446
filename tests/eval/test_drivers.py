"""Tests for the experiment drivers (smaller configurations for speed).

These check driver mechanics and the headline paper-shape properties; the
full-size regenerations live in ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.eval.accuracy import (
    fig10_fig11_outlier_stats,
    fig12_importance,
    fig16_pruning_tradeoff,
    table6_accuracy,
)
from repro.eval.energy_memory import fig15_energy, fig17_memory
from repro.eval.latency import (
    fig1_breakdown,
    fig4_quant_npu,
    fig8_chunk_length,
    fig14_prefill_speed,
    fig18_coordination,
    fig19_ablation,
    table3_matmul,
    table5_e2e,
)


class TestTable3Driver:
    def test_errors_within_tolerance(self):
        table = table3_matmul()
        for row in table.rows:
            err = float(row[-1].rstrip("%"))
            assert err <= 35.0


class TestFig8Driver:
    def test_per_token_latency_falls(self):
        table = fig8_chunk_length(chunk_lens=(32, 128, 256))
        ffn = table.column("FFN")
        assert ffn[0] > ffn[1] > ffn[2]


class TestFig4Driver:
    def test_per_group_penalty_band(self):
        table = fig4_quant_npu()
        kquant = float(table.value(
            "K-Quant (g=32)", "overhead vs per-tensor").rstrip("x"))
        assert 6.0 < kquant < 20.0


class TestFig14Driver:
    @pytest.fixture(scope="class")
    def table(self):
        return fig14_prefill_speed(models=("Qwen1.5-1.8B",),
                                   devices=("Redmi K70 Pro",),
                                   prompt_lens=(256, 1024))

    def test_llm_npu_wins_everywhere(self, table):
        ours = [r for r in table.rows if r[2] == "llm.npu"][0]
        for row in table.rows:
            if row[2] != "llm.npu":
                assert row[3] < ours[3]
                assert row[4] < ours[4]

    def test_six_engines(self, table):
        assert len(table.rows) == 6


class TestFig1Driver:
    def test_prefill_dominates_on_cpu(self):
        table = fig1_breakdown(workload_names=("ui_automation",),
                               n_samples=2)
        cpu_row = [r for r in table.rows if r[0] == "llama.cpp-CPU"][0]
        share = float(cpu_row[-1].rstrip("%"))
        assert share > 85.0  # paper: 88.3-98.8% on CPU

    def test_gpu_share_lower_but_majority(self):
        table = fig1_breakdown(workload_names=("chat_summary",),
                               n_samples=2)
        cpu = float([r for r in table.rows
                     if r[0] == "llama.cpp-CPU"][0][-1].rstrip("%"))
        gpu = float([r for r in table.rows
                     if r[0] == "TFLite-GPU"][0][-1].rstrip("%"))
        assert gpu < cpu


class TestFig15Driver:
    def test_savings_positive(self):
        table = fig15_energy(models=("Qwen1.5-1.8B",),
                             prompt_lens=(1024,))
        for row in table.rows:
            if row[1] != "llm.npu":
                assert float(row[-1].rstrip("x")) > 1.0


class TestFig17Driver:
    def test_shadow_share_small(self):
        table = fig17_memory(models=("Qwen1.5-1.8B",))
        ours = [r for r in table.rows if r[1] == "llm.npu"][0]
        share = float(ours[-1].rstrip("%"))
        assert share < 3.0


class TestFig18Driver:
    def test_gpu_decode_lowers_e2e(self):
        table = fig18_coordination(prompt_lens=(512,), output_tokens=16)
        cpu = [r for r in table.rows if r[0] == "CPU-NPU"][0]
        gpu = [r for r in table.rows if r[0] == "GPU-NPU"][0]
        assert gpu[4] < cpu[4]       # e2e lower
        assert gpu[3] < cpu[3]       # decode faster


class TestFig19Driver:
    def test_ladder_monotone(self):
        table = fig19_ablation(models=("Qwen1.5-1.8B",), prompt_len=512)
        row = table.rows[0]
        naive, chunk, outlier, ooe = row[2], row[3], row[4], row[5]
        assert naive < chunk < outlier
        assert ooe >= outlier * 0.999

    def test_naive_npu_slower_than_cpu(self):
        table = fig19_ablation(models=("Qwen1.5-1.8B",), prompt_len=512)
        row = table.rows[0]
        assert row[2] < row[1]  # naive NPU < llama.cpp-CPU (§2.3)


class TestTable5Driver:
    def test_ours_fastest_per_workload(self):
        table = table5_e2e(models=("Qwen1.5-1.8B",),
                           workload_names=("ui_automation",),
                           n_samples=2)
        ours = [r for r in table.rows if r[2] == "llm.npu"][0]
        for row in table.rows:
            if row[2] != "llm.npu":
                assert row[3] > ours[3]


class TestAccuracyDrivers:
    @pytest.fixture(scope="class")
    def table6(self):
        return table6_accuracy(n_items_scale=0.125,
                               benchmarks=("hellaswag", "winogrande"))

    def test_fp16_best(self, table6):
        means = {row[0]: row[-1] for row in table6.rows}
        assert means["fp16"] >= max(
            v for k, v in means.items() if k != "fp16"
        ) - 0.05

    def test_ours_beats_smoothquant(self, table6):
        means = {row[0]: row[-1] for row in table6.rows}
        assert means["llm.npu"] >= means["smoothquant"] - 0.02

    def test_fig16_speed_rises_with_pruning(self):
        table = fig16_pruning_tradeoff(
            rates=(0.0, 1.0), benchmarks=("hellaswag",),
            n_items_scale=0.125,
        )
        speeds = table.column("prefill tok/s")
        assert speeds[-1] > speeds[0]

    def test_fig16_accuracy_falls_with_full_pruning(self):
        table = fig16_pruning_tradeoff(
            rates=(0.0, 1.0), benchmarks=("hellaswag",),
            n_items_scale=0.25,
        )
        accs = table.column("acc:hellaswag")
        assert accs[-1] < accs[0]

    def test_fig10_11_fractions(self):
        table = fig10_fig11_outlier_stats(n_sequences=4, seq_len=32)
        for row in table.rows:
            outlier_fraction = float(row[3].rstrip("%"))
            hot_fraction = float(row[5].rstrip("%"))
            assert outlier_fraction < 2.0   # paper: < 0.3%
            assert hot_fraction < 5.0       # paper: < 3%

    def test_fig12_importance_u_shape(self):
        profile, sweep = fig12_importance(
            pruning_rates=(0.0, 1.0), benchmarks=("hellaswag",),
            n_items_scale=0.125,
        )
        values = profile.column("importance")
        n = len(values)
        ends = (values[0] + values[-1]) / 2
        middle = np.mean(values[n // 4: -n // 4])
        assert ends > 1.5 * middle
        accs = sweep.column("acc:hellaswag")
        assert accs[-1] < accs[0]


class TestTable6CrossEntropy:
    def test_ce_column_orders_schemes(self):
        table = table6_accuracy(
            schemes=("fp16", "per-tensor"),
            benchmarks=("winogrande",),
            n_items_scale=0.125,
            with_cross_entropy=True,
        )
        ce = {row[0]: row[-1] for row in table.rows}
        assert ce["fp16"] < ce["per-tensor"]

    def test_ce_column_absent_by_default(self):
        table = table6_accuracy(schemes=("fp16",),
                                benchmarks=("winogrande",),
                                n_items_scale=0.125)
        assert "teacher CE" not in table.columns
