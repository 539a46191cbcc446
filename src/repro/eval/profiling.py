"""Profiling drivers: attribution reports over the golden service run.

Glues :mod:`repro.obs.profile` to the evaluation layer: profiles every
completed request of the golden two-tier service workload
(:func:`~repro.eval.service_eval.service_golden_records`), merges the
per-request attributions into one report, and renders the tables /
deterministic JSON behind ``llmnpu profile`` and the CI determinism
check.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import EngineError
from repro.eval.report import Table
from repro.eval.service_eval import service_golden_records


def service_profile_report(seed: int = 42):
    """The merged :class:`~repro.obs.profile.ProfileReport` of the golden
    service workload, with the service's metrics snapshot attached.

    Every completed request's unified prefill+decode timeline is
    profiled individually (time attribution, idle-cause classification,
    per-event energy mirroring the engine's accounting) and the
    per-request reports are merged — so the conservation invariant
    (busy + classified idle = window per processor) and the energy
    reconciliation against the engine's reported totals hold for the
    aggregate exactly as they do per request.
    """
    from repro.obs import (
        MetricsRegistry,
        merge_profiles,
        profile_inference,
    )
    metrics = MetricsRegistry()
    service = service_golden_records(seed=seed, metrics=metrics)
    device = service.device
    cfg = service.config
    profiles = []
    for record in service.requests:
        if record.status != "completed" or record.report is None:
            continue
        profiles.append(profile_inference(
            record.report, device,
            float_backend=cfg.float_backend,
            decode_backend=cfg.decode_backend,
        ))
    if not profiles:
        raise EngineError("golden workload completed no requests")
    merged = merge_profiles(profiles)
    merged.metrics = metrics.snapshot()
    return merged, service


def operator_table(report, title: str = "Per-operator attribution") -> Table:
    """Operator-tag cost table from a profile report."""
    busy_by_proc = {p.proc: p.busy_s for p in report.processors}
    table = Table(
        title=title,
        columns=["proc", "operator", "events", "busy ms", "share %",
                 "matmul gops"],
    )
    for op in report.operators:
        proc_busy = busy_by_proc.get(op.proc, 0.0)
        table.add_row(
            op.proc, op.tag, op.n_events, op.busy_s * 1e3,
            (op.busy_s / proc_busy * 100) if proc_busy > 0 else 0.0,
            op.ops / 1e9,
        )
    table.add_note("per-operator busy sums to processor busy; 'share' is "
                   "of the owning processor's busy time")
    return table


def energy_table(report, title: str = "Energy attribution") -> Table:
    """Per-processor energy rollup from a profile report."""
    table = Table(
        title=title,
        columns=["component", "active J", "idle J", "total J", "share %"],
    )
    if report.energy is None:
        raise EngineError("profile has no energy section")
    total = report.energy["total_j"]
    for proc in sorted(report.energy["per_processor"]):
        section = report.energy["per_processor"][proc]
        active = sum(section["tags"].values())
        table.add_row(proc, active, section["idle_j"], section["total_j"],
                      section["total_j"] / total * 100 if total else 0.0)
    platform = report.energy["platform_j"]
    table.add_row("platform", None, None, platform,
                  platform / total * 100 if total else 0.0)
    table.add_note("per-event attribution replays the engine's power "
                   "model; totals reconcile with hw/energy.py")
    return table


def service_profile(seed: int = 42) -> Tuple[Table, ...]:
    """The ``service-profile`` experiment: attribution tables over the
    golden workload (``llmnpu profile --profile-out`` writes the full
    JSON report)."""
    report, service = service_profile_report(seed=seed)
    n_done = sum(1 for r in service.requests if r.status == "completed")
    summary = report.summary_table()
    summary.title = (f"Per-processor attribution — golden service workload "
                     f"(seed={seed}, {n_done} completed requests)")
    tables = (
        summary,
        operator_table(report),
        energy_table(report),
    )
    return tables


def golden_profile_json(seed: int = 42) -> str:
    """Canonical profile-report JSON of the golden scenario (one string).

    A pure function of ``seed`` — no timestamps, no environment — so
    ``scripts/check_determinism.sh`` byte-diffs two independent
    evaluations, and the traced-smoke CI job schema-checks the same
    bytes.
    """
    report, _service = service_profile_report(seed=seed)
    return report.to_json()
