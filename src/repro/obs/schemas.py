"""Single source of truth for the ``repro.*/v1`` artifact schemas.

Every schema-versioned JSON document the repo emits declares itself via
a ``"schema"`` key whose value lives here and **only** here.  Producer
modules (``obs/profile.py``, ``obs/artifact.py``, ``obs/monitor.py``,
``obs/sketch.py``, ``obs/steplog.py``, ``eval/fleet.py``) import their
constant from this table; each schema's validator lives in its owning
module, and :func:`repro.obs.validate.load_doc` (``llmnpu validate``)
dispatches a file to it by this key.

Besides the constants, :func:`require` is the key/type check every
file-boundary validator runs before its invariants, so a malformed
document fails with that module's typed error instead of a
``KeyError``/``TypeError``.
"""

import math

#: Per-operator/per-processor attribution reports (``llmnpu profile``).
PROFILE_SCHEMA = "repro.profile/v1"

#: Machine-readable benchmark artifacts (``BENCH_<name>.json``).
BENCH_SCHEMA = "repro.bench/v1"

#: Burn-rate incident timelines (:class:`~repro.obs.monitor.SloMonitor`).
ALERTS_SCHEMA = "repro.alerts/v1"

#: Fleet roll-up reports (``llmnpu fleet``).
FLEET_SCHEMA = "repro.fleet/v1"

#: Serialized mergeable quantile sketches.
SKETCH_SCHEMA = "repro.sketch/v1"

#: Step-level scheduler telemetry logs (``obs/steplog.py``).
STEPS_SCHEMA = "repro.steps/v1"

#: Critical-path attribution documents (``obs/critical_path.py``,
#: ``llmnpu critpath``).
CRITPATH_SCHEMA = "repro.critpath/v1"

#: Run-to-run differential attribution documents (``obs/diff.py``,
#: ``llmnpu diff``).
DIFF_SCHEMA = "repro.diff/v1"

#: Machine-readable ``bench-compare`` delta documents
#: (``llmnpu bench-compare --json-out``).
BENCHDIFF_SCHEMA = "repro.benchdiff/v1"

#: The ``repro.diff/v1`` per-segment status taxonomy: how an aligned
#: critical-path segment moved between the base and new runs (see
#: ``obs/diff.py``).
DIFF_STATUSES = (
    "grew",
    "shrank",
    "appeared",
    "vanished",
    "unchanged",
)

#: The ``repro.diff/v1`` document kinds — which artifact pair was
#: aligned (see ``obs/diff.py`` for the per-kind delta sections).
DIFF_KINDS = (
    "critpath",
    "profile",
    "steps",
    "fleet",
)

#: The ``repro.critpath/v1`` edge taxonomy: what gated each on-path
#: segment (see ``obs/critical_path.py`` for the per-edge semantics).
CRITPATH_EDGES = (
    "origin",
    "inferred",
    "resource",
    "dep",
    "service",
)

#: The ``repro.steps/v1`` decision taxonomy (see ``obs/steplog.py`` for
#: the per-action semantics).
DECISION_ACTIONS = (
    "admitted",
    "admission-rejected",
    "started",
    "kv-deferred",
    "concurrency-deferred",
    "dispatched",
    "chunk-scheduled",
    "decode-scheduled",
    "budget-exhausted",
    "decode-rotated-out",
    "completed",
    "rejected",
    "cancelled",
    "timeout",
    "failed",
)

#: Every document schema, keyed by its ``"schema"`` string.  Keep
#: descriptions short — ``llmnpu validate`` prints them on its OK lines.
SCHEMA_TABLE = {
    PROFILE_SCHEMA: "time/energy attribution report",
    BENCH_SCHEMA: "benchmark artifact with directional metrics",
    ALERTS_SCHEMA: "SLO burn-rate incident timeline",
    FLEET_SCHEMA: "fleet telemetry roll-up",
    SKETCH_SCHEMA: "mergeable quantile sketch",
    STEPS_SCHEMA: "per-step scheduler telemetry + decision log",
    CRITPATH_SCHEMA: "critical-path attribution with per-segment slack",
    DIFF_SCHEMA: "run-to-run differential attribution",
    BENCHDIFF_SCHEMA: "bench-compare machine-readable delta report",
}


def finite(value) -> bool:
    """Whether ``value`` is a finite JSON number (bools excluded)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _has_type(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_has_type(value, k) for k in kind)
    if kind is None:
        return value is None
    if kind is float:
        return finite(value)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


_TYPE_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               bool: "a boolean", list: "a list", dict: "an object",
               None: "null"}


def require(doc, spec: dict, where: str, error) -> None:
    """Raise ``error`` unless ``doc`` is an object holding every key of
    ``spec`` with the declared type.

    ``spec`` maps key -> ``float`` (a finite number), ``int``, ``str``,
    ``bool``, ``list``, ``dict``, ``object`` (any value), or a tuple of
    those where ``None`` admits null.
    """
    if not isinstance(doc, dict):
        raise error(f"{where}: expected an object, got "
                    f"{type(doc).__name__}")
    for key, kind in spec.items():
        if key not in doc:
            raise error(f"{where}: missing {key!r}")
        if kind is not object and not _has_type(doc[key], kind):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            raise error(f"{where}: {key!r} must be "
                        f"{' or '.join(_TYPE_NAMES[k] for k in kinds)}, "
                        f"got {doc[key]!r}")


__all__ = [
    "PROFILE_SCHEMA",
    "BENCH_SCHEMA",
    "ALERTS_SCHEMA",
    "FLEET_SCHEMA",
    "SKETCH_SCHEMA",
    "STEPS_SCHEMA",
    "CRITPATH_SCHEMA",
    "DIFF_SCHEMA",
    "BENCHDIFF_SCHEMA",
    "DIFF_STATUSES",
    "DIFF_KINDS",
    "CRITPATH_EDGES",
    "DECISION_ACTIONS",
    "SCHEMA_TABLE",
    "finite",
    "require",
]
