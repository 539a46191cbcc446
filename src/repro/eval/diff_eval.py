"""Differential-attribution experiment: inject a slowdown, find it.

The ``diff-eval`` experiment is the diff layer's end-to-end proof: it
uses the PR-9 what-if machinery to inject a *known* operator slowdown
into the captured engine DAG, re-simulates, diffs the two runs'
critical paths, and checks that ``repro.diff/v1`` names exactly the
injected operator as the top contributor — with the attributed
per-segment deltas telescoping to the observed e2e delta within 1 ns.

Both properties are gated three ways: the tables below carry
directional metrics under ``bench-compare`` (committed goldens in
``benchmarks/results/json/``), ``scripts/check_determinism.sh``
re-derives the golden diff and asserts both, and the CI ``diff-smoke``
job runs ``llmnpu diff`` over the pair and greps for the operator.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from repro.core import LlmNpuEngine
from repro.errors import EngineError
from repro.eval.report import Table
from repro.hw.soc import get_device
from repro.model.config import get_model_config
from repro.obs.critical_path import critical_path, critpath_doc
from repro.obs.diff import (
    DIFF_TOL_S,
    diff_docs,
    diff_json,
    diff_narrative,
)
from repro.obs.whatif import (
    OperatorSpeedup,
    _simulate,
    capture_engine_run,
    perturb_tasks,
)

#: The operator the golden experiment slows down, and by how much
#: (``factor=0.5`` doubles every matching task's duration — the
#: :class:`~repro.obs.whatif.OperatorSpeedup` convention).
INJECTED_TAG = "sg1"
INJECTED_FACTOR = 0.5


def injected_slowdown_docs(
    model="Qwen1.5-1.8B",
    device="Redmi K70 Pro",
    prompt_len: int = 512,
    output_tokens: int = 4,
    tag: str = INJECTED_TAG,
    factor: float = INJECTED_FACTOR,
) -> Tuple[dict, dict]:
    """Baseline and injected-slowdown ``repro.critpath/v1`` documents.

    Captures one engine inference's DAG, simulates it untouched, then
    re-simulates with every ``tag``-matching task slowed by
    ``1/factor`` — the same simulation path the what-if estimator
    predicts with, so the pair differs *only* by the injected
    perturbation.
    """
    cfg = get_model_config(model) if isinstance(model, str) else model
    dev = get_device(device) if isinstance(device, str) else device
    engine = LlmNpuEngine(cfg, dev)
    run = capture_engine_run(engine, prompt_len,
                             output_tokens=output_tokens)
    source = f"prompt {prompt_len}"
    base_trace = _simulate(run, run.tasks)
    base_path = critical_path(base_trace, tasks=run.tasks, source=source)
    slowed = perturb_tasks(run, [OperatorSpeedup(tag=tag, factor=factor)])
    slow_trace = _simulate(run, slowed)
    slow_path = critical_path(slow_trace, tasks=slowed, source=source)
    base_doc = critpath_doc(
        [base_path], source=f"baseline {cfg.name} prompt={prompt_len}")
    slow_doc = critpath_doc(
        [slow_path],
        source=f"slowdown {tag} x{1 / factor:g} {cfg.name} "
               f"prompt={prompt_len}")
    return base_doc, slow_doc


def injected_slowdown_diff(**kwargs) -> dict:
    """The ``repro.diff/v1`` document of the injected-slowdown pair."""
    base_doc, slow_doc = injected_slowdown_docs(**kwargs)
    return diff_docs(base_doc, slow_doc)


def golden_diff_json(**kwargs) -> str:
    """Deterministic JSON of :func:`injected_slowdown_diff` — a pure
    function of its arguments, so ``scripts/check_determinism.sh``
    byte-diffs two independent evaluations."""
    return diff_json(injected_slowdown_diff(**kwargs))


def golden_baseline_critpath_json(**kwargs) -> str:
    """Deterministic JSON of the baseline critpath doc alone — the
    committed golden the ``bench-compare --explain`` registry re-runs
    regressed benchmarks against."""
    base_doc, _slow_doc = injected_slowdown_docs(**kwargs)
    return json.dumps(base_doc, indent=2, sort_keys=True,
                      allow_nan=False)


def diff_attribution_table(doc: dict, tag: str = INJECTED_TAG,
                           title: Optional[str] = None) -> Table:
    """Top contributors of a critpath diff, plus the two gate columns.

    ``top-contributor hit rate`` is 1.0 exactly when the biggest
    per-stage delta belongs to the injected operator; ``residual us``
    is the worst per-request conservation residual.  Both are
    directional under ``bench-compare``, so a future change that breaks
    attribution fails the committed golden, not just the unit tests.
    """
    top = doc["top_contributors"][0] if doc["top_contributors"] else None
    if top is None:
        raise EngineError("diff has no contributors to attribute")
    hit = 1.0 if top["tag"] == tag else 0.0
    residual_s = max((abs(r["residual_s"]) for r in doc["requests"]),
                     default=0.0)
    table = Table(
        title=title or (f"Injected-slowdown attribution — "
                        f"{doc['new']['source']}"),
        columns=["stage", "delta ms", "share %",
                 "top-contributor hit rate", "residual us"],
    )
    for i, c in enumerate(doc["top_contributors"][:8]):
        table.add_row(
            c["tag"], c["delta_s"] * 1e3,
            None if c["share"] is None else c["share"] * 100,
            hit if i == 0 else None,
            residual_s * 1e6 if i == 0 else None,
        )
    table.add_note(
        f"injected: {tag} slowed x{1 / INJECTED_FACTOR:g}; the diff must "
        f"rank it top and telescope per-segment deltas to the e2e delta "
        f"within {DIFF_TOL_S:.0e} s"
    )
    return table


def diff_summary_table(doc: dict, title: Optional[str] = None) -> Table:
    """e2e movement + segment-status census of a critpath diff."""
    e2e = doc["e2e"]
    table = Table(
        title=title or "Run diff summary",
        columns=["diff", "requests", "base e2e ms", "new e2e ms",
                 "delta ms", "grew", "shrank", "appeared", "vanished",
                 "unchanged"],
    )
    status = doc["by_status"]
    table.add_row(
        "base vs new", float(doc["n_requests"]), e2e["base_s"] * 1e3,
        e2e["new_s"] * 1e3, e2e["delta_s"] * 1e3,
        float(status["grew"]), float(status["shrank"]),
        float(status["appeared"]), float(status["vanished"]),
        float(status["unchanged"]),
    )
    table.add_note("statuses count aligned critical-path segments; "
                   "'appeared'/'vanished' are path membership changes, "
                   "not new work")
    return table


def diff_demo(
    model="Qwen1.5-1.8B",
    device="Redmi K70 Pro",
    prompt_len: int = 512,
    diff_out: Optional[str] = None,
) -> Tuple[Table, ...]:
    """The ``diff-eval`` experiment driver (``llmnpu run diff-eval``)."""
    doc = injected_slowdown_diff(model=model, device=device,
                                 prompt_len=prompt_len)
    if diff_out:
        from repro.obs.export import open_text
        with open_text(diff_out, "w") as fh:
            fh.write(diff_json(doc))
            fh.write("\n")
    tables = (
        diff_summary_table(
            doc, title=f"Run diff — baseline vs {INJECTED_TAG} slowed "
                       f"x{1 / INJECTED_FACTOR:g} (prompt={prompt_len})"),
        diff_attribution_table(doc),
    )
    return tables


def diff_demo_narrative(**kwargs) -> str:
    """The per-request narrative of the demo diff, as printable text."""
    doc = injected_slowdown_diff(**kwargs)
    return "\n".join(diff_narrative(doc))


# -- bench-compare --explain registry -----------------------------------------


def _fresh_service_critpath() -> dict:
    from repro.eval.whatif_eval import golden_critpath_doc
    return golden_critpath_doc()


def _fresh_injected_baseline() -> dict:
    return injected_slowdown_docs()[0]


def golden_scenarios() -> dict:
    """Registry behind ``bench-compare --explain``.

    Maps a benchmark artifact stem (``BENCH_<stem>.json``) to
    ``(committed golden attribution doc, fresh-scenario callable)``.
    When a metric of that artifact regresses, ``--explain`` re-runs the
    scenario and diffs it against the committed doc, so CI logs carry
    the operator-level root cause, not just the failing metric.
    """
    import os

    from repro.eval.report import results_dir
    json_dir = os.path.join(results_dir(), "json")
    service = (os.path.join(json_dir, "GOLDEN_critpath.json.gz"),
               _fresh_service_critpath)
    injected = (os.path.join(json_dir, "GOLDEN_diff_baseline.json.gz"),
                _fresh_injected_baseline)
    return {
        "critpath": service,
        "critpath_requests": service,
        "dma_ablation": service,
        "stage_crossover": service,
        "diff_attribution": injected,
    }


def explain_regression(artifact_stem: str) -> Optional[dict]:
    """The attribution diff for one regressed benchmark artifact.

    Returns None when no golden scenario is registered for the stem;
    raises :class:`~repro.errors.ReproError` subclasses when the golden
    doc is unreadable or the runs cannot be aligned.
    """
    entry = golden_scenarios().get(artifact_stem)
    if entry is None:
        return None
    golden_path, fresh = entry
    from repro.obs.export import open_text
    try:
        with open_text(golden_path) as fh:
            golden = json.load(fh)
    except (OSError, ValueError) as exc:
        raise EngineError(
            f"cannot read committed golden {golden_path!r}: {exc}"
        ) from None
    return diff_docs(golden, fresh())


__all__ = [
    "INJECTED_TAG",
    "INJECTED_FACTOR",
    "injected_slowdown_docs",
    "injected_slowdown_diff",
    "golden_diff_json",
    "golden_baseline_critpath_json",
    "diff_attribution_table",
    "diff_summary_table",
    "diff_demo",
    "diff_demo_narrative",
    "golden_scenarios",
    "explain_regression",
]
