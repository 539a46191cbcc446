"""Differential attribution: inject a slowdown, recover it (extension).

The run-to-run diff layer's gated benchmark: the golden injected-sg1
experiment must rank the slowed operator as the top critical-path
contributor and telescope its per-segment deltas to the observed e2e
delta within a nanosecond.  Both properties ride directional columns
("top-contributor hit rate" / "residual us") so ``bench-compare``
fails the committed golden if attribution ever silently breaks, and a
self-diff of the unperturbed baseline must come back identical.
"""

from conftest import show_and_archive

from repro.eval.diff_eval import (
    INJECTED_TAG,
    diff_attribution_table,
    diff_summary_table,
    injected_slowdown_diff,
    injected_slowdown_docs,
)
from repro.obs import diff_docs


def test_diff_attribution(once):
    doc = once(injected_slowdown_diff)
    table = diff_attribution_table(doc)
    show_and_archive(table, "diff_attribution.txt")

    # the injected operator must be the single biggest contributor...
    assert table.rows[0][0] == INJECTED_TAG
    assert table.column("top-contributor hit rate")[0] == 1.0
    # ...and the per-segment deltas must telescope to the e2e delta:
    # the worst per-request residual stays far under the 1 ns gate
    assert abs(table.column("residual us")[0]) < 1e-3
    # a real slowdown moved the clock
    assert doc["e2e"]["delta_s"] > 0.0
    assert not doc["identical"]


def test_diff_summary(once):
    doc = once(injected_slowdown_diff)
    table = diff_summary_table(doc)
    show_and_archive(table, "diff_summary.txt")

    # one aligned request, and the slowdown grew at least one segment
    assert table.column("requests") == [1.0]
    assert table.column("grew")[0] >= 1.0
    assert table.column("delta ms")[0] > 0.0


def test_self_diff_is_identical(once):
    # diffing a run against itself is the layer's zero point: no
    # segment moves, the doc says identical, every delta is exactly 0
    base_doc, _ = once(injected_slowdown_docs)
    doc = diff_docs(base_doc, base_doc)
    assert doc["identical"]
    assert doc["e2e"]["delta_s"] == 0.0
    assert doc["by_status"]["grew"] == 0
    assert doc["by_status"]["shrank"] == 0
    assert all(r["delta_s"] == 0.0 for r in doc["requests"])
