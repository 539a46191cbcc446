"""One-shot reproduction report: every experiment, one markdown file.

``llmnpu report`` runs all experiments at their benchmark configurations
and writes a consolidated ``REPORT.md`` next to the archived tables — the
artifact a reviewer would diff against EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.eval.report import results_dir
from repro.obs.export import write_text


def _default_experiments() -> Dict[str, Callable]:
    # imported lazily to avoid import cycles with repro.cli
    from repro.cli import EXPERIMENTS, load_driver
    return {name: load_driver(name) for name in EXPERIMENTS}


def generate_report(
    path: Optional[str] = None,
    experiments: Optional[Dict[str, Callable]] = None,
    skip: Tuple[str, ...] = (),
) -> str:
    """Run every experiment and write the consolidated markdown report.

    Returns the report path.  ``skip`` excludes experiment ids (e.g. the
    slow accuracy sweeps when only systems numbers are needed).
    """
    experiments = (experiments if experiments is not None
                   else _default_experiments())
    if path is None:
        path = os.path.join(results_dir(), "REPORT.md")

    sections: List[str] = [
        "# llm.npu reproduction — consolidated report",
        "",
        f"Generated by `llmnpu report`; {len(experiments)} experiments.",
        "",
    ]
    for name, fn in experiments.items():
        if name in skip:
            sections.append(f"## {name}\n\n_skipped_\n")
            continue
        start = time.time()
        result = fn()
        elapsed = time.time() - start
        tables = result if isinstance(result, tuple) else (result,)
        sections.append(f"## {name}\n")
        for table in tables:
            sections.append(table.to_markdown())
            sections.append("")
        sections.append(f"_regenerated in {elapsed:.1f}s_\n")

    # the last section's trailing newline comes from the writer
    return write_text(path, "\n".join(sections).rstrip("\n"))
