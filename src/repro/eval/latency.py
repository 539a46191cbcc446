"""Latency experiment drivers: Table 3, Figures 1, 4, 8, 14, 18, 19 and
Table 5 of the paper's evaluation."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines import BASELINES, make_baseline
from repro.core import EngineConfig, LlmNpuEngine
from repro.eval.report import Table
from repro.hw import (
    DType,
    MatMulShape,
    matmul_latency,
    per_group_matmul_latency,
)
from repro.hw.soc import SocSpec, get_device
from repro.model.config import ModelConfig, get_model_config
from repro.workloads.datasets import WORKLOADS, geomean, sample_workload

#: Table 3's published MatMul shapes and measurements (ms), Redmi K70 Pro.
TABLE3_SHAPES = [
    (64, 2048, 2048), (64, 2048, 8192), (64, 2048, 11008),
    (32, 4096, 4096), (32, 4096, 8192), (32, 4096, 11008),
]
TABLE3_PAPER_MS = {
    "NPU INT8": [0.9, 1.5, 2.0, 1.7, 2.9, 4.1],
    "CPU INT8": [4.2, 6.8, 11.6, 7.5, 13.1, 19.6],
    "GPU FP16": [1.7, 4.8, 6.9, 3.1, 7.7, 10.4],
    "NPU FP16": [252, 986, 1207, 1054, 2009, 3112],
}


def _device(device) -> SocSpec:
    return get_device(device) if isinstance(device, str) else device


def _model(model) -> ModelConfig:
    return get_model_config(model) if isinstance(model, str) else model


def table3_matmul(device="Redmi K70 Pro") -> Table:
    """Regenerate Table 3: MatMul latency per engine and shape."""
    dev = _device(device)
    engines = {
        "NPU INT8": (dev.npu, DType.INT8),
        "CPU INT8": (dev.cpu, DType.INT8),
        "GPU FP16": (dev.gpu, DType.FP16),
        "NPU FP16": (dev.npu, DType.FP16),
    }
    table = Table(
        title=f"Table 3 — MatMul latency (ms) on {dev.name}",
        columns=["engine"] + [f"{m}x{k}x{n}" for m, k, n in TABLE3_SHAPES]
        + ["max err vs paper"],
    )
    for name, (proc, dtype) in engines.items():
        preds = [
            matmul_latency(proc, MatMulShape(*shape), dtype) * 1e3
            for shape in TABLE3_SHAPES
        ]
        errs = [
            abs(p - a) / a
            for p, a in zip(preds, TABLE3_PAPER_MS[name])
        ]
        table.add_row(name, *preds, f"{max(errs):.0%}")
    table.add_note("paper-measured values: "
                   + "; ".join(f"{k}: {v}" for k, v in TABLE3_PAPER_MS.items()))
    return table


def fig14_prefill_speed(
    models: Sequence = ("Qwen1.5-1.8B", "Gemma-2B", "LlaMA-2-7B"),
    devices: Sequence = ("Redmi K70 Pro", "Redmi K60 Pro"),
    prompt_lens: Sequence[int] = (64, 256, 1024),
) -> Table:
    """Regenerate Figure 14: prefill speed (tokens/s) per engine."""
    table = Table(
        title="Figure 14 — prefill speed (tokens/s)",
        columns=["device", "model", "engine"]
        + [f"prompt={p}" for p in prompt_lens],
    )
    for device in devices:
        dev = _device(device)
        for model in models:
            cfg = _model(model)
            engines = {"llm.npu": LlmNpuEngine(cfg, dev)}
            for name in BASELINES:
                engines[name] = make_baseline(name, cfg, dev)
            for name, engine in engines.items():
                speeds = [
                    engine.prefill(p).tokens_per_s for p in prompt_lens
                ]
                table.add_row(dev.name, cfg.name, name, *speeds)
    return table


def fig1_breakdown(
    model="Qwen1.5-1.8B",
    device="Redmi K70 Pro",
    workload_names: Sequence[str] = ("ui_automation", "email_reply",
                                     "chat_summary"),
    n_samples: int = 5,
) -> Table:
    """Regenerate Figure 1: prefill share of end-to-end latency.

    CPU rows use llama.cpp (as the paper does), GPU rows use TFLite.
    """
    cfg = _model(model)
    dev = _device(device)
    table = Table(
        title="Figure 1 — prefill share of end-to-end latency",
        columns=["engine", "workload", "prefill s", "decode s",
                 "prefill share"],
    )
    for engine_name in ("llama.cpp-CPU", "TFLite-GPU"):
        engine = make_baseline(engine_name, cfg, dev)
        for wname in workload_names:
            spec = WORKLOADS[wname]
            prefill_total = decode_total = 0.0
            for sample in sample_workload(spec, n_samples):
                report = engine.infer(sample.prompt_tokens,
                                      sample.output_tokens)
                prefill_total += report.prefill_latency_s
                decode_total += report.decode_latency_s
            share = prefill_total / (prefill_total + decode_total)
            table.add_row(engine_name, wname, prefill_total / n_samples,
                          decode_total / n_samples, f"{share:.1%}")
    return table


def fig4_quant_npu(
    device="Redmi K70 Pro",
    shape=(256, 2048, 2048),
) -> Table:
    """Regenerate Figure 4's latency half: quantization layout vs NPU
    MatMul latency (per-tensor vs K-Quant/AWQ-style per-group)."""
    dev = _device(device)
    m, k, n = shape
    per_tensor = matmul_latency(dev.npu, MatMulShape(m, k, n), DType.INT8)
    table = Table(
        title=f"Figure 4 — NPU MatMul latency by quantization layout "
              f"({m}x{k}x{n}) on {dev.name}",
        columns=["layout", "latency ms", "overhead vs per-tensor"],
    )
    table.add_row("per-tensor (SmoothQuant/llm.npu)", per_tensor * 1e3, "1.0x")
    for name, group in (("K-Quant (g=32)", 32), ("AWQ-style (g=128)", 128)):
        latency = per_group_matmul_latency(
            dev.npu, MatMulShape(m, k, n), group, DType.INT8
        )
        table.add_row(name, latency * 1e3, f"{latency / per_tensor:.1f}x")
    table.add_note("paper measures 8.1-10.7x for per-group layouts")
    return table


def fig8_chunk_length(
    model="Qwen1.5-1.8B",
    device="Redmi K70 Pro",
    chunk_lens: Sequence[int] = (32, 64, 128, 256, 512, 1024),
) -> Table:
    """Regenerate Figure 8: per-token latency of QKV linears and FFN
    against chunk length."""
    cfg = _model(model)
    dev = _device(device)
    table = Table(
        title=f"Figure 8 — per-token NPU latency (us/token), {cfg.name}",
        columns=["chunk length", "QKV linears", "FFN"],
    )
    for chunk in chunk_lens:
        qkv = (
            matmul_latency(dev.npu, MatMulShape(chunk, cfg.hidden_size,
                                                cfg.q_dim), DType.INT8)
            + 2 * matmul_latency(dev.npu, MatMulShape(chunk, cfg.hidden_size,
                                                      cfg.kv_dim), DType.INT8)
        )
        n_up = 2 if cfg.gated_ffn else 1
        ffn = (
            n_up * matmul_latency(dev.npu, MatMulShape(chunk, cfg.hidden_size,
                                                       cfg.ffn_hidden),
                                  DType.INT8)
            + matmul_latency(dev.npu, MatMulShape(chunk, cfg.ffn_hidden,
                                                  cfg.hidden_size),
                             DType.INT8)
        )
        table.add_row(chunk, qkv / chunk * 1e6, ffn / chunk * 1e6)
    table.add_note("llm.npu picks 256: diminishing returns beyond it while "
                   "intra-chunk padding waste keeps growing")
    return table


def table5_e2e(
    models: Sequence = ("Qwen1.5-1.8B", "Gemma-2B", "LlaMA-2-7B"),
    device="Redmi K70 Pro",
    workload_names: Optional[Sequence[str]] = None,
    n_samples: int = 3,
) -> Table:
    """Regenerate Table 5: end-to-end latency per workload and engine."""
    dev = _device(device)
    workload_names = (tuple(WORKLOADS) if workload_names is None
                      else tuple(workload_names))
    table = Table(
        title=f"Table 5 — end-to-end latency (s) on {dev.name} "
              "(prefill + decode)",
        columns=["workload", "model", "engine", "e2e s", "prefill s",
                 "decode s", "speedup vs engine"],
    )
    for wname in workload_names:
        spec = WORKLOADS[wname]
        samples = sample_workload(spec, n_samples)
        for model in models:
            cfg = _model(model)
            ours = LlmNpuEngine(cfg, dev)
            ours_reports = [
                ours.infer(s.prompt_tokens, s.output_tokens)
                for s in samples
            ]
            ours_e2e = [r.e2e_latency_s for r in ours_reports]
            table.add_row(
                wname, cfg.name, "llm.npu",
                sum(ours_e2e) / len(ours_e2e),
                sum(r.prefill_latency_s for r in ours_reports) / n_samples,
                sum(r.decode_latency_s for r in ours_reports) / n_samples,
                "1.0x",
            )
            for bname in BASELINES:
                engine = make_baseline(bname, cfg, dev)
                reports = [
                    engine.infer(s.prompt_tokens, s.output_tokens)
                    for s in samples
                ]
                speedups = [
                    r.e2e_latency_s / o for r, o in zip(reports, ours_e2e)
                ]
                table.add_row(
                    wname, cfg.name, bname,
                    sum(r.e2e_latency_s for r in reports) / n_samples,
                    sum(r.prefill_latency_s for r in reports) / n_samples,
                    sum(r.decode_latency_s for r in reports) / n_samples,
                    f"{geomean(speedups):.1f}x",
                )
    return table


def fig18_coordination(
    model="Gemma-2B",
    device="Redmi K70 Pro",
    prompt_lens: Sequence[int] = (256, 512, 1024),
    output_tokens: int = 16,
) -> Table:
    """Regenerate Figure 18: CPU-NPU vs GPU-NPU coordination."""
    cfg = _model(model)
    dev = _device(device)
    table = Table(
        title=f"Figure 18 — CPU-NPU vs GPU-NPU coordination, {cfg.name}",
        columns=["coordination", "prompt", "prefill tok/s", "decode s",
                 "e2e s"],
    )
    for backend in ("cpu", "gpu"):
        engine = LlmNpuEngine(cfg, dev, EngineConfig(
            float_backend=backend, decode_backend=backend,
        ))
        for p in prompt_lens:
            report = engine.infer(p, output_tokens)
            # The prompt is a text cell so that, with the coordination,
            # it labels the row's metrics.
            table.add_row(
                f"{backend.upper()}-NPU", str(p),
                report.prefill_tokens_per_s,
                report.decode_latency_s,
                report.e2e_latency_s,
            )
    table.add_note("paper: coordination choice barely moves prefill; GPU "
                   "decode lowers end-to-end latency")
    return table


#: The Fig. 19 ablation ladder configurations, in presentation order.
ABLATION_LADDER = (
    ("naive NPU", dict(chunking=False, quant_mode="per-group",
                       policy="in-order", equivalent_shapes=False)),
    ("+chunk", dict(chunking=True, quant_mode="per-group",
                    policy="in-order", equivalent_shapes=False)),
    ("+outlier", dict(chunking=True, quant_mode="shadow",
                      policy="in-order", equivalent_shapes=False)),
    ("+OOE (llm.npu)", dict(chunking=True, quant_mode="shadow",
                            policy="ooo", equivalent_shapes=False)),
)


def fig19_ablation(
    models: Sequence = ("Qwen1.5-1.8B", "Gemma-2B", "LlaMA-2-7B"),
    device="Redmi K70 Pro",
    prompt_len: int = 512,
) -> Table:
    """Regenerate Figure 19: the technique-by-technique ablation."""
    dev = _device(device)
    table = Table(
        title=f"Figure 19 — ablation, prefill speed (tokens/s), "
              f"prompt={prompt_len}",
        columns=["model", "llama.cpp-CPU"]
        + [name for name, _ in ABLATION_LADDER],
    )
    for model in models:
        cfg = _model(model)
        cpu_speed = make_baseline(
            "llama.cpp-CPU", cfg, dev
        ).prefill(prompt_len).tokens_per_s
        speeds = []
        for _, overrides in ABLATION_LADDER:
            engine = LlmNpuEngine(cfg, dev, EngineConfig(**overrides))
            speeds.append(engine.prefill(prompt_len).tokens_per_s)
        table.add_row(cfg.name, cpu_speed, *speeds)
    table.add_note("paper: chunk-sharing 1.46-5.09x, shadow outlier "
                   "3.91-8.68x, out-of-order 18-44% latency reduction")
    return table
