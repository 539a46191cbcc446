"""Benchmark harness conventions.

Every file regenerates one table/figure of the paper via its
``repro.eval`` driver, measured once with ``benchmark.pedantic`` (the
drivers are deterministic simulations — repeated timing rounds would only
re-measure the same arithmetic), prints the regenerated table, archives it
under ``benchmarks/results/``, and asserts the paper-shape properties
(who wins, rough factors, crossovers).

Run with::

    pytest benchmarks/ --benchmark-only
"""

import pytest


def run_once(benchmark, fn, **kwargs):
    """Benchmark a driver with a single round and return its result."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1,
                              warmup_rounds=0)


@pytest.fixture()
def once(benchmark):
    def _run(fn, **kwargs):
        return run_once(benchmark, fn, **kwargs)
    return _run


def show_and_archive(table, filename):
    """Print a regenerated table and archive it under benchmarks/results.

    Alongside the human-readable ``.txt``, every benchmark emits a
    machine-readable twin — ``results/json/BENCH_<stem>.json`` (schema
    ``repro.bench/v1``) with the table's numeric cells as directional
    metrics — which ``llmnpu bench-compare`` gates CI on.

    A table without numeric cells (the calibration dashboard's are
    formatted strings) has no twin: ``repro.bench/v1`` requires at
    least one metric.  The twin is rewritten only when its name or
    metrics change.  Its ``env`` (git sha, Python version) is provenance
    that no gate reads, so an existing file keeps the one of the commit
    that last moved its numbers, and regenerating an unchanged table
    leaves its golden byte-identical: ``git status`` then shows only
    real changes.
    """
    import os

    from repro.errors import ReproError
    from repro.eval.report import archive, results_dir
    from repro.obs import load_artifact, make_artifact, write_text

    print()
    print(table.render())
    path = archive(table, filename)
    print(f"[archived: {path}]")
    stem = os.path.splitext(os.path.basename(filename))[0]
    artifact = make_artifact(stem, table)
    if not artifact.metrics:
        return
    json_path = os.path.join(results_dir(), "json", f"BENCH_{stem}.json")
    try:
        old = load_artifact(json_path)
    except (OSError, ReproError):
        old = None
    if (old is None or old.name != artifact.name
            or old.metrics != artifact.metrics):
        write_text(json_path, artifact.to_json())
    print(f"[artifact: {json_path}]")
