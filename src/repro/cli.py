"""Command-line interface: run any of the paper's experiments.

Usage::

    llmnpu list                      # list experiments and options
    llmnpu run fig14                 # regenerate Figure 14
    llmnpu run all                   # regenerate everything
    llmnpu infer --model Qwen1.5-1.8B --prompt-tokens 1024 --output-tokens 8
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List

from repro.eval import (
    ablation_chunk_length,
    calibration_dashboard,
    diff_demo,
    dma_ablation,
    fleet_slo,
    service_batching,
    service_breakdown,
    service_critpath,
    service_fault_recovery,
    service_load,
    service_profile,
    service_tier_comparison,
    stage_crossover,
    ablation_equivalent_shapes,
    ablation_hot_channels,
    dma_overlap,
    ablation_scheduler,
    archive,
    future_hardware,
    mixed_precision_npu,
    tri_processor,
    short_prompt_crossover,
    fig1_breakdown,
    fig4_quant_npu,
    fig8_chunk_length,
    fig10_fig11_outlier_stats,
    fig12_importance,
    fig14_prefill_speed,
    fig15_energy,
    fig16_pruning_tradeoff,
    fig17_memory,
    fig18_coordination,
    fig19_ablation,
    table3_matmul,
    table5_e2e,
    table6_accuracy,
)

#: Experiment id -> (description, zero-arg driver returning Table(s)).
EXPERIMENTS: Dict[str, tuple] = {
    "table3": ("MatMul micro-benchmarks per engine", table3_matmul),
    "fig1": ("prefill share of end-to-end latency", fig1_breakdown),
    "fig4": ("quantization layout cost on the NPU", fig4_quant_npu),
    "fig8": ("chunk-length sweep (per-token NPU latency)",
             fig8_chunk_length),
    "fig10-11": ("outlier channel statistics", fig10_fig11_outlier_stats),
    "fig12": ("outlier importance and pruning sweep", fig12_importance),
    "fig14": ("prefill speed vs five baselines", fig14_prefill_speed),
    "fig15": ("prefill energy vs baselines", fig15_energy),
    "fig16": ("accuracy vs speed across pruning rates",
              fig16_pruning_tradeoff),
    "fig17": ("memory consumption vs INT8 baselines", fig17_memory),
    "fig18": ("CPU-NPU vs GPU-NPU coordination", fig18_coordination),
    "fig19": ("technique ablation ladder", fig19_ablation),
    "table5": ("end-to-end latency on the mobile workloads", table5_e2e),
    "table6": ("quantization accuracy comparison", table6_accuracy),
    # extensions beyond the paper's own figures:
    "abl-chunk": ("ablation: chunk length sweep", ablation_chunk_length),
    "abl-sched": ("ablation: scheduling policies", ablation_scheduler),
    "abl-hot": ("ablation: hot-channel cache sizing",
                ablation_hot_channels),
    "abl-shapes": ("ablation: equivalent-shape optimization",
                   ablation_equivalent_shapes),
    "dma-overlap": ("hw model: double/quad-buffered weight streaming",
                    dma_overlap),
    "future-hw": ("§5 what-if: faster NPUs", future_hardware),
    "future-fp16": ("§5 what-if: mixed-precision NPU", mixed_precision_npu),
    "tri-proc": ("extension: tri-processor execution", tri_processor),
    "crossover": ("extension: short-prompt crossover + hybrid dispatch",
                  short_prompt_crossover),
    "validate": ("calibration dashboard: paper anchors vs this build",
                 calibration_dashboard),
    "service": ("LLM-as-a-System-Service load analysis", service_load),
    "service-tiers": ("two-tier scheduling + admission control vs FIFO",
                      service_tier_comparison),
    "service-faults": ("retry-with-backoff under injected engine faults",
                       service_fault_recovery),
    "service-breakdown": ("per-tier turnaround decomposition "
                          "(queue/retry/prefill/decode)",
                          service_breakdown),
    "service-batching": ("continuous batching with chunked prefill vs "
                         "per-request dispatch, sweeping the "
                         "prefill_priority TTFT/ITL knob",
                         service_batching),
    "service-profile": ("per-operator/processor attribution + roofline "
                        "+ idle causes + energy over the golden workload",
                        service_profile),
    "fleet-slo": ("fleet telemetry: merged sketch percentiles + SLO "
                  "compliance + burn-rate incidents across devices",
                  fleet_slo),
    "critpath": ("critical-path attribution over the golden service "
                 "workload (which tasks gated each request)",
                 service_critpath),
    "dma-ablation": ("calibrated DMA buffer-depth ladder, cross-checked "
                     "by the what-if estimator", dma_ablation),
    "stage-crossover": ("prompt length x float placement sweep with "
                        "critical-path gating stages (ROADMAP item 3)",
                        stage_crossover),
    "diff-eval": ("differential attribution: inject a known operator "
                  "slowdown, diff the runs, recover exactly that "
                  "operator as the top contributor", diff_demo),
}


def _print_tables(result, save_as: str = "") -> None:
    tables = result if isinstance(result, tuple) else (result,)
    for i, table in enumerate(tables):
        print(table.render())
        print()
        if save_as:
            suffix = f"_{i}" if len(tables) > 1 else ""
            path = archive(table, f"{save_as}{suffix}.txt")
            print(f"[saved to {path}]")


def cmd_list(_args) -> int:
    print("Available experiments:")
    for name, (desc, _fn) in EXPERIMENTS.items():
        print(f"  {name:10s} {desc}")
    return 0


def cmd_run(args) -> int:
    names: List[str] = (list(EXPERIMENTS) if "all" in args.experiment
                        else args.experiment)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try `llmnpu list`",
                  file=sys.stderr)
            return 2
    import inspect
    for name in names:
        desc, fn = EXPERIMENTS[name]
        print(f"== {name}: {desc} ==")
        start = time.time()
        kwargs = {}
        params = inspect.signature(fn).parameters
        for flag in ("trace_out", "metrics_out", "critpath_out",
                     "diff_out"):
            value = getattr(args, flag, None)
            if value and flag in params:
                kwargs[flag] = value
        result = fn(**kwargs)
        _print_tables(result, save_as=name if args.save else "")
        for flag, label in (("trace_out", "trace"),
                            ("metrics_out", "metrics"),
                            ("critpath_out", "critpath artifact"),
                            ("diff_out", "diff artifact")):
            if getattr(args, flag, None):
                if flag in kwargs:
                    print(f"[{label} written to {kwargs[flag]}]")
                else:
                    print(f"[--{flag.replace('_', '-')} ignored: "
                          f"{name} does not export a {label}]")
        print(f"[{name} took {time.time() - start:.1f}s]\n")
    return 0


def cmd_report(args) -> int:
    from repro.eval.summary import generate_report
    skip = tuple(args.skip) if args.skip else ()
    path = generate_report(skip=skip)
    print(f"report written to {path}")
    return 0


def cmd_quantize(args) -> int:
    """The paper's §A.5 workflow: calibrate + quantize a float checkpoint
    and export the quantized model for "on-device" use."""
    import numpy as np
    from repro.model import build_synthetic_model, tiny_config
    from repro.model.io import load_model, save_model
    from repro.quant import quantize_model, save_quantized, top1_agreement
    from repro.workloads import calibration_corpus, heldout_sequences

    if args.input:
        model = load_model(args.input)
        reference = load_model(args.input)
        print(f"loaded checkpoint {args.input} "
              f"({model.config.name}, {model.config.n_layers} layers)")
    else:
        config = tiny_config(n_layers=16, hidden_size=96, n_heads=4,
                             ffn_hidden=256)
        model = build_synthetic_model(config, seed=args.seed)
        reference = build_synthetic_model(config, seed=args.seed)
        print(f"built synthetic substrate ({config.n_layers} layers, "
              f"width {config.hidden_size})")

    corpus = calibration_corpus(model.config, seed=args.seed)
    report = quantize_model(model, args.scheme, calib_corpus=corpus,
                            pruning_rate=args.pruning_rate)
    heldout = heldout_sequences(model.config, seed=args.seed + 1000)
    ref_logits = np.concatenate([reference.prefill(ids) for ids in heldout])
    q_logits = np.concatenate([model.prefill(ids) for ids in heldout])
    agreement = top1_agreement(ref_logits, q_logits)
    print(f"scheme={args.scheme} sites={report.n_sites} "
          f"weights={report.weight_bytes:,} bytes "
          f"teacher-agreement={agreement:.1%}")
    if report.pruning_plan is not None:
        print(f"shadow kept on layers: "
              f"{sorted(report.pruning_plan.kept_layers)}")
    save_quantized(model, args.output)
    print(f"quantized checkpoint written to {args.output}")
    return 0


def cmd_infer(args) -> int:
    from repro.core import LlmNpuEngine
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer
        tracer = Tracer()
    engine = LlmNpuEngine.build(args.model, args.device,
                                pruning_rate=args.pruning_rate,
                                chunk_len=args.chunk_len,
                                tracer=tracer)
    report = engine.infer(args.prompt_tokens, args.output_tokens)
    print(report.summary())
    if report.prefill.trace is not None:
        print(f"NPU bubble rate: {report.prefill.npu_bubble_rate:.1%}  "
              f"NPU busy: {report.prefill.npu_busy_s:.3f}s  "
              f"float busy: {report.prefill.float_busy_s:.3f}s")
    if args.trace_out:
        from repro.obs import save_chrome_trace
        # merge the engine-level spans with the prefill task schedule
        if report.prefill.trace is not None:
            for ev in report.prefill.trace.events:
                tracer.span(ev.task_id, proc=f"hw {engine.model.name}",
                            thread=ev.proc, start_s=ev.start_s,
                            end_s=ev.end_s, cat=ev.tag or "task")
        save_chrome_trace(args.trace_out, tracer)
        print(f"[trace written to {args.trace_out}]")
    if args.metrics_out:
        from repro.obs import MetricsRegistry
        reg = MetricsRegistry()
        reg.counter("infer_requests_total", model=engine.model.name).inc()
        reg.counter("infer_prompt_tokens_total").inc(report.prompt_tokens)
        reg.counter("infer_output_tokens_total").inc(report.output_tokens)
        reg.histogram("infer_prefill_s").observe(report.prefill_latency_s)
        reg.histogram("infer_decode_s").observe(report.decode_latency_s)
        reg.gauge("infer_npu_bubble_rate").set(
            report.prefill.npu_bubble_rate)
        reg.save(args.metrics_out)
        print(f"[metrics written to {args.metrics_out}]")
    return 0


def cmd_trace(args) -> int:
    """Run the seeded golden service workload fully traced and export
    the unified timeline, the JSONL event log, the metrics snapshot,
    and the per-tier latency breakdown."""
    from repro.eval import service_golden_records
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        breakdown_table,
        export_service_trace,
        write_jsonl,
    )
    tracer = Tracer()
    metrics = MetricsRegistry()
    service = service_golden_records(seed=args.seed, tracer=tracer,
                                     metrics=metrics)
    events = export_service_trace(service, args.trace_out,
                                  validate=not args.no_validate,
                                  critpath=args.critpath)
    n_spans = sum(1 for e in events if e.get("ph") == "X")
    print(f"[unified trace: {len(events)} events ({n_spans} spans) "
          f"-> {args.trace_out}]")
    if args.jsonl_out:
        n = write_jsonl(args.jsonl_out, tracer=service.tracer,
                        metrics=service.metrics_registry)
        print(f"[JSONL event log: {n} records -> {args.jsonl_out}]")
    if args.metrics_out:
        service.metrics_registry.save(args.metrics_out)
        print(f"[metrics snapshot -> {args.metrics_out}]")
    print()
    print(breakdown_table(service.requests).render())
    return 0


def cmd_profile(args) -> int:
    """Profile the golden service workload (or a single inference with
    --prompt-tokens): attribution tables on stdout, full JSON report to
    --profile-out, flamegraph collapsed stacks to --flamegraph-out."""
    from repro.eval.profiling import (
        energy_table,
        operator_table,
        service_profile_report,
    )
    from repro.obs import validate_profile

    if args.prompt_tokens:
        from repro.core import LlmNpuEngine
        from repro.obs import profile_inference
        engine = LlmNpuEngine.build(args.model, args.device)
        inference = engine.infer(args.prompt_tokens, args.output_tokens)
        report = profile_inference(
            inference, engine.device,
            float_backend=engine.config.float_backend,
            decode_backend=engine.config.decode_backend,
        )
        title = (f"Per-processor attribution — {args.model} "
                 f"({args.prompt_tokens} prompt tokens)")
    else:
        report, service = service_profile_report(seed=args.seed)
        n_done = sum(1 for r in service.requests
                     if r.status == "completed")
        title = (f"Per-processor attribution — golden service workload "
                 f"(seed={args.seed}, {n_done} completed requests)")
    validate_profile(report)
    summary = report.summary_table()
    summary.title = title
    operators = operator_table(report)
    if args.operator:
        pattern = args.operator
        operators.rows = [
            row for row in operators.rows
            if row[1] == pattern or str(row[1]).startswith(pattern + ".")
        ]
        operators.add_note(f"filtered to operator {pattern!r} "
                           f"({len(operators.rows)} rows)")
    if args.top:
        # rows are (proc, tag, events, busy ms, share, gops); keep the
        # N biggest time sinks so huge traces stay skimmable
        ranked = sorted(operators.rows, key=lambda row: -row[3])
        if len(ranked) > args.top:
            operators.add_note(f"top {args.top} of {len(ranked)} "
                               f"operators by busy time")
        operators.rows = ranked[:args.top]
    for table in (summary, operators, energy_table(report)):
        print(table.render())
        print()
    flamegraph = list(report.flamegraph)
    if args.operator:
        pattern = args.operator
        flamegraph = [
            line for line in flamegraph
            if any(frame == pattern or frame.startswith(pattern + ".")
                   for frame in line.rsplit(" ", 1)[0].split(";"))
        ]
    if args.top:
        flamegraph = sorted(
            flamegraph, key=lambda line: -int(line.rsplit(" ", 1)[1])
        )[:args.top]
    if args.profile_out:
        report.save(args.profile_out)
        print(f"[profile report ({len(report.to_json())} bytes) -> "
              f"{args.profile_out}]")
    if args.flamegraph_out:
        import os
        os.makedirs(os.path.dirname(args.flamegraph_out) or ".",
                    exist_ok=True)
        with open(args.flamegraph_out, "w") as f:
            f.write("\n".join(flamegraph))
            f.write("\n")
        print(f"[flamegraph: {len(flamegraph)} stacks -> "
              f"{args.flamegraph_out}]")
    return 0


def _write_json(path: str, text: str) -> None:
    import os

    from repro.obs.export import open_text
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open_text(path, "w") as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")


def cmd_fleet(args) -> int:
    """Simulate a heterogeneous device fleet under SLO monitoring and
    aggregate the mergeable telemetry: fleet percentiles, compliance,
    and the merged incident timeline."""
    import json

    from repro.errors import ReproError
    from repro.eval import (
        default_fleet,
        fleet_compliance_table,
        fleet_latency_table,
        fleet_percentile_table,
        fleet_report,
        fleet_scheduler_table,
        incident_table,
    )
    from repro.obs import validate_timeline_doc

    try:
        report = fleet_report(
            specs=default_fleet(args.devices, seed=args.seed,
                                seeding=args.seeding),
            seed=args.seed,
            workers=args.workers,
        )
        validate_timeline_doc(report["alerts"])
    except ReproError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    for table in (fleet_percentile_table(report),
                  fleet_latency_table(report),
                  fleet_compliance_table(report),
                  fleet_scheduler_table(report),
                  incident_table(report["alerts"],
                                 title=f"Fleet incident timeline "
                                       f"(seed={args.seed})")):
        print(table.render())
        print()
    if args.report_out:
        _write_json(args.report_out,
                    json.dumps(report, indent=2, sort_keys=True))
        print(f"[fleet report (repro.fleet/v1) -> {args.report_out}]")
    if args.alerts_out:
        _write_json(args.alerts_out,
                    json.dumps(report["alerts"], indent=2, sort_keys=True))
        print(f"[incident timeline (repro.alerts/v1) -> "
              f"{args.alerts_out}]")
    return 0


def cmd_monitor(args) -> int:
    """Run the seeded fault-storm scenario under SLO monitoring and
    print the compliance scoreboard + burn-rate incident timeline."""
    from repro.errors import ReproError
    from repro.eval import fault_storm_monitor, incident_table
    from repro.eval.report import Table
    from repro.obs import validate_timeline_doc

    try:
        monitor = fault_storm_monitor(seed=args.seed,
                                      transient_rate=args.transient_rate,
                                      permanent_rate=args.permanent_rate)
        doc = monitor.timeline()
        validate_timeline_doc(doc)
    except ReproError as exc:
        print(f"monitor: {exc}", file=sys.stderr)
        return 2
    scoreboard = Table(
        title=f"SLO compliance — fault storm (seed={args.seed}, "
              f"transient={args.transient_rate:g}, "
              f"permanent={args.permanent_rate:g})",
        columns=["slo", "objective", "tier", "target", "events", "bad",
                 "good", "met"],
    )
    for slo in doc["slos"]:
        scoreboard.add_row(slo["name"], slo["objective"],
                           slo["tier"] or "*", slo["target"],
                           slo["n_events"], slo["n_bad"],
                           slo["good_fraction"],
                           "yes" if slo["met"] else "NO")
    print(scoreboard.render())
    print()
    print(incident_table(
        doc, title=f"Incident timeline (seed={args.seed})").render())
    if args.alerts_out:
        _write_json(args.alerts_out,
                    monitor.timeline_json(indent=2))
        print(f"\n[incident timeline (repro.alerts/v1) -> "
              f"{args.alerts_out}]")
    return 0


def cmd_bench_compare(args) -> int:
    """Compare benchmark artifacts; exit 1 on regression."""
    from repro.obs import ArtifactError, benchdiff_json, compare_paths
    try:
        comparison = compare_paths(args.baseline, args.candidate,
                                   rel_tol=args.rel_tol,
                                   abs_tol=args.abs_tol)
    except ArtifactError as exc:
        print(f"bench-compare: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        _write_json(args.json_out, benchdiff_json(comparison))
        print(f"[delta report (repro.benchdiff/v1) -> {args.json_out}]")
    table = comparison.table()
    if not args.all_metrics:
        interesting = [d for d in comparison.deltas
                       if d.verdict != "ok"]
        if interesting:
            shown = {d.metric for d in interesting}
            table.rows = [row for row in table.rows if row[0] in shown]
        else:
            table.rows = []
            table.add_note("all metrics within thresholds "
                           "(use --all-metrics to list them)")
    print(table.render())
    n_regressed = len(comparison.regressions)
    n_total = len(comparison.deltas)
    if n_regressed:
        if args.explain:
            _explain_regressions(comparison)
        # One line per offender on stderr: which metric, which way it
        # is allowed to move, golden vs fresh value, and the artifact
        # to regenerate — so CI logs are actionable without rerunning.
        for d in comparison.regressions:
            fresh = ("<missing>" if d.candidate is None
                     else f"{d.candidate:g}")
            where = f" [artifact {d.path}]" if d.path else ""
            print(f"regressed: {d.metric} ({d.direction} is better): "
                  f"baseline {d.baseline:g} -> candidate {fresh}{where}",
                  file=sys.stderr)
        print(f"\nFAIL: {n_regressed}/{n_total} metrics regressed",
              file=sys.stderr)
        return 1
    print(f"\nOK: {n_total} metrics within thresholds")
    return 0


def _artifact_stem(path: str) -> str:
    """``.../BENCH_critpath.json`` -> ``critpath``."""
    import os
    name = os.path.basename(path or "")
    if name.startswith("BENCH_"):
        name = name[len("BENCH_"):]
    if name.endswith(".json"):
        name = name[:-len(".json")]
    return name


def _explain_regressions(comparison) -> None:
    """``bench-compare --explain``: per regressed artifact, re-run its
    registered golden scenario and print the run-to-run attribution —
    which operators ate the delta.  Stdout only; the per-regression
    stderr lines stay machine-stable."""
    from repro.errors import ReproError
    from repro.eval.diff_eval import explain_regression
    from repro.obs import diff_narrative, diff_table

    seen = []
    for d in comparison.regressions:
        stem = _artifact_stem(d.path or comparison.baseline_name)
        if stem not in seen:
            seen.append(stem)
    for stem in seen:
        print(f"\n== explain: {stem} ==")
        try:
            doc = explain_regression(stem)
        except ReproError as exc:
            print(f"(attribution unavailable: {exc})")
            continue
        if doc is None:
            print(f"(no golden scenario registered for {stem!r} — "
                  f"see repro.eval.diff_eval.golden_scenarios)")
            continue
        print(diff_table(doc).render())
        for line in diff_narrative(doc):
            print(line)


def cmd_diff(args) -> int:
    """Run-to-run differential attribution: align two saved artifacts
    (critpath / profile / steps / fleet, optionally gzipped) and
    attribute the deltas.  Exit 0 when identical within tolerance,
    1 when the runs differ, 2 on usage errors — mirroring
    ``bench-compare``."""
    import json

    from repro.errors import ReproError
    from repro.obs import (
        diff_docs,
        diff_json,
        diff_narrative,
        diff_table,
        open_text,
    )

    try:
        docs = []
        for path in (args.base, args.new):
            try:
                with open_text(path) as fh:
                    docs.append(json.load(fh))
            except (OSError, ValueError) as exc:
                raise ReproError(
                    f"cannot read {path!r}: {exc}") from None
        doc = diff_docs(docs[0], docs[1], tol_s=args.tol)
    except ReproError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    print(diff_table(doc, top=args.top).render())
    if doc["kind"] == "critpath" and not args.no_narrative:
        print()
        for line in diff_narrative(doc, top=args.top):
            print(line)
    if args.out:
        _write_json(args.out, diff_json(doc))
        print(f"[diff (repro.diff/v1) -> {args.out}]")
    if doc["identical"]:
        print(f"\nOK: runs identical within {doc['tol_s']:g} s")
        return 0
    print(f"\nDIFFER: {args.base} -> {args.new}", file=sys.stderr)
    return 1


def cmd_explain(args) -> int:
    """Explain one request of a step-logged run: per-request wait
    attribution (behind whom, which knob) reconstructed from the
    ``repro.steps/v1`` decision log, reconciled against the traced
    breakdown within 1e-9 s."""
    import json

    from repro.errors import ReproError
    from repro.obs import (
        explain_lines,
        explain_table,
        load_steps,
        validate_steps_doc,
    )

    try:
        if args.steplog:
            doc = load_steps(args.steplog)
            validate_steps_doc(doc)
        else:
            from repro.eval import golden_steplog
            doc = golden_steplog(
                seed=args.seed, batched=args.batched,
                prefill_priority=args.prefill_priority,
            ).to_dict()
        if args.steplog_out:
            _write_json(args.steplog_out,
                        json.dumps(doc, indent=2, sort_keys=True))
            print(f"[step log (repro.steps/v1) -> {args.steplog_out}]")
        if args.request_id is None:
            print(explain_table(
                doc, title=f"Wait attribution — {doc['source']} "
                           f"({doc['n_requests']} requests, "
                           f"{doc['n_steps']} steps)").render())
        else:
            for line in explain_lines(doc, args.request_id):
                print(line)
            if not args.steplog and not args.no_critpath:
                print()
                for line in _request_narrative(args.seed, args.batched,
                                               args.request_id):
                    print(line)
    except ReproError as exc:
        print(f"explain: {exc}", file=sys.stderr)
        return 2
    return 0


def _request_narrative(seed: int, batched: bool,
                       request_id: int) -> List[str]:
    """Critical-path narrative lines for one golden-workload request
    (the causal half of ``explain``: wait attribution says how long the
    scheduler held the request, the critical path says which tasks then
    gated it)."""
    from repro.eval import batched_golden_service, service_golden_records
    from repro.obs import narrative_lines, request_critical_path

    service = (batched_golden_service(seed=seed) if batched
               else service_golden_records(seed=seed))
    for record in service.requests:
        if record.request_id == request_id:
            if record.status != "completed" or record.report is None:
                return [f"(no critical path: request {request_id} "
                        f"status is {record.status!r})"]
            path = request_critical_path(
                record, decode_backend=service.config.decode_backend)
            return narrative_lines(path)
    return [f"(no critical path: request {request_id} not in the "
            f"golden workload)"]


def cmd_critpath(args) -> int:
    """Critical-path attribution: which tasks actually gated completion.

    Three modes: the golden service workload (default), one synthetic
    inference (--prompt-tokens), or a fleet roll-up of top gating
    segments (--fleet N)."""
    import json

    from repro.errors import ReproError
    from repro.obs import (
        critpath_doc,
        narrative_lines,
        validate_critical_path,
    )

    try:
        if args.fleet:
            from repro.eval import (
                default_fleet,
                fleet_critpath_table,
                fleet_report,
            )
            report = fleet_report(
                specs=default_fleet(args.fleet, seed=args.seed,
                                    seeding=args.seeding),
                seed=args.seed, workers=args.workers, critpath=True)
            print(fleet_critpath_table(report, top=args.top).render())
            return 0
        if args.prompt_tokens:
            from repro.core import LlmNpuEngine
            from repro.obs import critical_path
            engine = LlmNpuEngine.build(args.model, args.device)
            inference = engine.infer(args.prompt_tokens,
                                     args.output_tokens)
            timeline = inference.timeline(engine.config.decode_backend)
            path = critical_path(
                timeline, source=f"{args.model} "
                                 f"prompt={args.prompt_tokens}")
            paths = [path]
            for line in narrative_lines(path, top=args.top):
                print(line)
        else:
            from repro.eval import (
                critpath_request_table,
                critpath_stage_table,
                service_critical_paths,
            )
            paths, _service = service_critical_paths(seed=args.seed)
            if args.request_id is not None:
                wanted = f"request {args.request_id}"
                matches = [p for p in paths if p.source == wanted]
                if not matches:
                    raise ReproError(
                        f"request {args.request_id} has no critical "
                        f"path (not completed, or not in the workload)")
                for line in narrative_lines(matches[0], top=args.top):
                    print(line)
            else:
                print(critpath_stage_table(
                    paths, title=f"Critical-path attribution by stage — "
                                 f"golden workload (seed={args.seed})"
                ).render())
                print()
                print(critpath_request_table(paths).render())
        for path in paths:
            validate_critical_path(path)
        if args.critpath_out:
            doc = critpath_doc(
                paths, source=f"golden service workload seed={args.seed}"
                if not args.prompt_tokens else paths[0].source)
            _write_json(args.critpath_out,
                        json.dumps(doc, indent=2, sort_keys=True,
                                   allow_nan=False))
            print(f"[critpath artifact (repro.critpath/v1) -> "
                  f"{args.critpath_out}]")
    except ReproError as exc:
        print(f"critpath: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_whatif(args) -> int:
    """Counterfactual latency estimation: simulate the captured task DAG
    with perturbed latencies and report predicted TTFT/ITL/e2e deltas,
    optionally verified against the reference simulator."""
    from repro.core import LlmNpuEngine
    from repro.errors import ReproError
    from repro.eval.report import Table
    from repro.obs import (
        WHATIF_TOL_S,
        capture_engine_run,
        dma_overlap_perturbation,
        predict,
        reassign_from_spec,
        resimulate,
        speedup_from_spec,
    )

    try:
        engine = LlmNpuEngine.build(args.model, args.device)
        perturbations = []
        for spec in args.speedup or ():
            perturbations.append(speedup_from_spec(spec))
        for spec in args.reassign or ():
            perturbations.append(reassign_from_spec(spec))
        if args.dma_buffers:
            from repro.hw.dma import DmaConfig
            pert, _clone = dma_overlap_perturbation(
                engine, args.prompt_tokens,
                DmaConfig(buffers=args.dma_buffers),
                output_tokens=args.output_tokens)
            perturbations.append(pert)
        if not perturbations:
            raise ReproError(
                "no perturbations given — use --speedup TAG=FACTOR, "
                "--reassign TAG=PROC[*SCALE], and/or --dma-buffers N")
        run = capture_engine_run(engine, args.prompt_tokens,
                                 output_tokens=args.output_tokens)
        report = predict(run, perturbations)
    except ReproError as exc:
        print(f"whatif: {exc}", file=sys.stderr)
        return 2
    table = Table(
        title=f"What-if — {args.model}, prompt={args.prompt_tokens}, "
              f"out={args.output_tokens}",
        columns=["metric", "baseline ms", "predicted ms", "delta ms"],
    )
    for metric, base, pred in (
            ("TTFT", report.baseline.ttft_s, report.predicted.ttft_s),
            ("ITL", report.baseline.itl_s, report.predicted.itl_s),
            ("e2e", report.baseline.e2e_s, report.predicted.e2e_s)):
        table.add_row(metric, base * 1e3, pred * 1e3,
                      (pred - base) * 1e3)
    for label in report.perturbations:
        table.add_note(f"perturbation: {label}")
    print(table.render())
    if args.verify:
        truth = resimulate(run, perturbations)
        error = max(abs(report.predicted.ttft_s - truth.ttft_s),
                    abs(report.predicted.itl_s - truth.itl_s),
                    abs(report.predicted.e2e_s - truth.e2e_s))
        verdict = "OK" if error <= WHATIF_TOL_S else "FAIL"
        print(f"\n[{verdict}] re-simulation check: max |prediction - "
              f"ground truth| = {error:.3e} s (tolerance "
              f"{WHATIF_TOL_S:g} s)")
        if error > WHATIF_TOL_S:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llmnpu",
        description="llm.npu reproduction — run the paper's experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="run experiments")
    run.add_argument("experiment", nargs="+",
                     help="experiment ids (or 'all')")
    run.add_argument("--save", action="store_true",
                     help="archive tables under benchmarks/results/")
    run.add_argument("--trace-out", default=None,
                     help="write a Perfetto trace (drivers that trace)")
    run.add_argument("--metrics-out", default=None,
                     help="write a metrics snapshot (drivers that trace)")
    run.add_argument("--critpath-out", default=None,
                     help="write the repro.critpath/v1 artifact (drivers "
                          "that attribute critical paths)")
    run.add_argument("--diff-out", default=None,
                     help="write the repro.diff/v1 artifact (drivers "
                          "that diff runs)")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser(
        "report", help="run every experiment into one markdown report"
    )
    report.add_argument("--skip", nargs="*", default=None,
                        help="experiment ids to skip")
    report.set_defaults(func=cmd_report)

    quantize = sub.add_parser(
        "quantize",
        help="calibrate + quantize a checkpoint (the paper's §A.5 step)",
    )
    quantize.add_argument("--input", default=None,
                          help="float checkpoint (.npz); default: build a "
                               "synthetic substrate")
    quantize.add_argument("--output", required=True,
                          help="quantized checkpoint path (.npz)")
    quantize.add_argument("--scheme", default="llm.npu",
                          choices=["llm.npu", "per-tensor", "per-group"])
    quantize.add_argument("--pruning-rate", type=float, default=0.85)
    quantize.add_argument("--seed", type=int, default=7)
    quantize.set_defaults(func=cmd_quantize)

    infer = sub.add_parser("infer", help="simulate one inference")
    infer.add_argument("--model", default="Qwen1.5-1.8B")
    infer.add_argument("--device", default="Redmi K70 Pro")
    infer.add_argument("--prompt-tokens", type=int, default=1024)
    infer.add_argument("--output-tokens", type=int, default=8)
    infer.add_argument("--pruning-rate", type=float, default=0.85)
    infer.add_argument("--chunk-len", type=int, default=256)
    infer.add_argument("--trace-out", default=None,
                       help="write the engine + task timeline "
                            "(Chrome/Perfetto JSON)")
    infer.add_argument("--metrics-out", default=None,
                       help="write an inference metrics snapshot (JSON)")
    infer.set_defaults(func=cmd_infer)

    trace = sub.add_parser(
        "trace",
        help="run the golden service workload fully traced; export the "
             "unified Perfetto timeline, JSONL log, and metrics",
    )
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--trace-out", default="traces/service_trace.json")
    trace.add_argument("--jsonl-out", default=None,
                       help="also write the JSONL event log")
    trace.add_argument("--metrics-out", default=None,
                       help="also write the metrics snapshot (JSON)")
    trace.add_argument("--no-validate", action="store_true",
                       help="skip the per-track serial-overlap check")
    trace.add_argument("--critpath", action="store_true",
                       help="stamp hw spans with an on_path arg marking "
                            "each request's critical path")
    trace.set_defaults(func=cmd_trace)

    profile = sub.add_parser(
        "profile",
        help="attribution report: per-operator/processor time + energy, "
             "roofline, idle causes, flamegraph",
    )
    profile.add_argument("--seed", type=int, default=42,
                         help="golden-workload seed (service mode)")
    profile.add_argument("--model", default="Qwen1.5-1.8B")
    profile.add_argument("--device", default="Redmi K70 Pro")
    profile.add_argument("--prompt-tokens", type=int, default=0,
                         help="profile one inference of this many prompt "
                              "tokens instead of the golden workload")
    profile.add_argument("--output-tokens", type=int, default=8)
    profile.add_argument("--profile-out", default=None,
                         help="write the repro.profile/v1 JSON report")
    profile.add_argument("--flamegraph-out", default=None,
                         help="write collapsed-stack flamegraph lines")
    profile.add_argument("--top", type=int, default=0,
                         help="only the N biggest operators / flamegraph "
                              "stacks (0 = all)")
    profile.add_argument("--operator", default=None,
                         help="filter tables + flamegraph to one operator "
                              "tag (exact or dotted-prefix match)")
    profile.set_defaults(func=cmd_profile)

    fleet = sub.add_parser(
        "fleet",
        help="simulate a heterogeneous device fleet under SLO "
             "monitoring; merge sketches + incident timelines",
    )
    fleet.add_argument("--devices", type=int, default=3,
                       help="fleet size (cycles flagship/mid/budget)")
    fleet.add_argument("--seed", type=int, default=42)
    fleet.add_argument("--workers", type=int, default=1,
                       help="process-pool size for the device fan-out "
                            "(report is byte-identical for any value)")
    fleet.add_argument("--seeding", choices=("legacy", "splitmix"),
                       default="legacy",
                       help="per-device seed derivation; 'legacy' is the "
                            "seed+100*i ladder the 3-device goldens pin, "
                            "'splitmix' decorrelates large fleets")
    fleet.add_argument("--report-out", default=None,
                       help="write the repro.fleet/v1 report JSON")
    fleet.add_argument("--alerts-out", default=None,
                       help="write the merged repro.alerts/v1 timeline")
    fleet.set_defaults(func=cmd_fleet)

    monitor = sub.add_parser(
        "monitor",
        help="run the seeded fault-storm scenario under SLO monitoring; "
             "print compliance + burn-rate incidents",
    )
    monitor.add_argument("--seed", type=int, default=42)
    monitor.add_argument("--transient-rate", type=float, default=0.35)
    monitor.add_argument("--permanent-rate", type=float, default=0.1)
    monitor.add_argument("--alerts-out", default=None,
                         help="write the repro.alerts/v1 timeline JSON")
    monitor.set_defaults(func=cmd_monitor)

    compare = sub.add_parser(
        "bench-compare",
        help="compare BENCH_*.json artifacts (files or directories); "
             "exits nonzero on regression",
    )
    compare.add_argument("baseline", help="baseline artifact file or dir")
    compare.add_argument("candidate", help="candidate artifact file or dir")
    compare.add_argument("--rel-tol", type=float, default=0.05,
                         help="relative noise threshold (default 5%%)")
    compare.add_argument("--abs-tol", type=float, default=1e-9,
                         help="absolute noise threshold")
    compare.add_argument("--all-metrics", action="store_true",
                         help="list every metric, not just movers")
    compare.add_argument("--json-out", default=None,
                         help="write the machine-readable "
                              "repro.benchdiff/v1 delta report")
    compare.add_argument("--explain", action="store_true",
                         help="for each regressed artifact with a "
                              "registered golden scenario, re-run it and "
                              "print the run-to-run attribution")
    compare.set_defaults(func=cmd_bench_compare)

    diff = sub.add_parser(
        "diff",
        help="run-to-run differential attribution: align two saved "
             "critpath/profile/steps/fleet artifacts and attribute "
             "the deltas; exits 1 when the runs differ",
    )
    diff.add_argument("base", help="baseline artifact (JSON, .gz ok)")
    diff.add_argument("new", help="new-run artifact (same schema)")
    diff.add_argument("--top", type=int, default=5,
                      help="movers per table / narrative block")
    diff.add_argument("--tol", type=float, default=1e-9,
                      help="conservation + identity tolerance in "
                           "seconds")
    diff.add_argument("--out", default=None,
                      help="write the repro.diff/v1 document (.gz ok)")
    diff.add_argument("--no-narrative", action="store_true",
                      help="skip the per-request narrative (critpath "
                           "diffs)")
    diff.set_defaults(func=cmd_diff)

    explain = sub.add_parser(
        "explain",
        help="per-request wait attribution from the scheduler's step "
             "log: behind whom, held by which knob, reconciled to the "
             "traced breakdown",
    )
    explain.add_argument("request_id", nargs="?", type=int, default=None,
                         help="request id to explain (omit for the "
                              "all-requests attribution table)")
    explain.add_argument("--seed", type=int, default=42,
                         help="golden-workload seed (ignored with "
                              "--steplog)")
    explain.add_argument("--batched", action="store_true",
                         help="explain the batched golden run instead "
                              "of the legacy per-request run")
    explain.add_argument("--prefill-priority", type=float, default=0.5,
                         help="batched run's prefill/decode knob")
    explain.add_argument("--steplog", default=None,
                         help="read a saved repro.steps/v1 log instead "
                              "of rerunning the golden workload")
    explain.add_argument("--steplog-out", default=None,
                         help="also write the run's repro.steps/v1 log")
    explain.add_argument("--no-critpath", action="store_true",
                         help="skip the per-request critical-path "
                              "narrative")
    explain.set_defaults(func=cmd_explain)

    critpath = sub.add_parser(
        "critpath",
        help="critical-path attribution: the dependency-respecting "
             "chain of tasks that gated completion, with per-segment "
             "slack for everything off-path",
    )
    critpath.add_argument("request_id", nargs="?", type=int, default=None,
                          help="narrate one golden-workload request "
                               "(omit for the attribution tables)")
    critpath.add_argument("--seed", type=int, default=42)
    critpath.add_argument("--model", default="Qwen1.5-1.8B")
    critpath.add_argument("--device", default="Redmi K70 Pro")
    critpath.add_argument("--prompt-tokens", type=int, default=0,
                          help="attribute one inference of this many "
                               "prompt tokens instead of the golden "
                               "workload")
    critpath.add_argument("--output-tokens", type=int, default=8)
    critpath.add_argument("--top", type=int, default=5,
                          help="gating segments per narrative / fleet "
                               "stages to list")
    critpath.add_argument("--fleet", type=int, default=0,
                          help="roll up top gating segments across N "
                               "fleet devices instead")
    critpath.add_argument("--seeding", choices=("legacy", "splitmix"),
                          default="legacy",
                          help="fleet-mode per-device seed derivation")
    critpath.add_argument("--workers", type=int, default=1,
                          help="fleet-mode process-pool size")
    critpath.add_argument("--critpath-out", default=None,
                          help="write the repro.critpath/v1 artifact")
    critpath.set_defaults(func=cmd_critpath)

    whatif = sub.add_parser(
        "whatif",
        help="counterfactual latency: simulate the captured task DAG "
             "with perturbed latencies; predicted TTFT/ITL/e2e deltas",
    )
    whatif.add_argument("--model", default="Qwen1.5-1.8B")
    whatif.add_argument("--device", default="Redmi K70 Pro")
    whatif.add_argument("--prompt-tokens", type=int, default=1024)
    whatif.add_argument("--output-tokens", type=int, default=8)
    whatif.add_argument("--speedup", action="append", metavar="TAG=FACTOR",
                        help="operator TAG becomes FACTOR times faster "
                             "(repeatable)")
    whatif.add_argument("--reassign", action="append",
                        metavar="TAG=PROC[*SCALE]",
                        help="operator TAG moves to PROC, durations "
                             "scaled by SCALE (repeatable)")
    whatif.add_argument("--dma-buffers", type=int, default=0,
                        help="re-model NPU weight streaming with an "
                             "N-buffer DMA pool")
    whatif.add_argument("--verify", action="store_true",
                        help="cross-check the prediction against a "
                             "re-simulation on the reference simulator "
                             "(exits 1 if beyond tolerance)")
    whatif.set_defaults(func=cmd_whatif)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
