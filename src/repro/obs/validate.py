"""One reader for every saved artifact: ``load_doc`` (``llmnpu validate``).

A file is read through :func:`~repro.obs.export.open_text` (so ``.gz``
works everywhere), parsed as strict JSON — ``NaN``/``Infinity`` are not
JSON and no writer emits them — and validated by the owning module's
validator, picked by what the file holds:

* an object with a ``"schema"`` key: that schema's validator;
* a JSON array of metric records: a metrics snapshot
  (:func:`~repro.obs.metrics.validate_metrics_snapshot`);
* any other JSON array: a Chrome trace (:func:`~repro.obs.export
  .validate_chrome_trace`);
* anything else: a JSONL event log, one record per line
  (:func:`~repro.obs.export.validate_jsonl_records`).

Every failure is a typed :class:`~repro.errors.ReproError` whose message
starts with the path, so a CLI entry point reports it and exits 2.
"""

from __future__ import annotations

import json
import zlib
from typing import Optional

from repro.errors import ReproError
from repro.obs.artifact import (
    ArtifactError,
    validate_bench_doc,
    validate_benchdiff_doc,
)
from repro.obs.critical_path import CritPathError, validate_critpath_doc
from repro.obs.diff import DiffError, validate_diff_doc
from repro.obs.export import (
    open_text,
    validate_chrome_trace,
    validate_jsonl_records,
)
from repro.obs.metrics import validate_metrics_snapshot
from repro.obs.monitor import (
    MonitorError,
    validate_fleet_doc,
    validate_timeline_doc,
)
from repro.obs.profile import ProfileError, validate_profile_doc
from repro.obs.schemas import (
    ALERTS_SCHEMA,
    BENCH_SCHEMA,
    BENCHDIFF_SCHEMA,
    CRITPATH_SCHEMA,
    DIFF_SCHEMA,
    FLEET_SCHEMA,
    PROFILE_SCHEMA,
    SCHEMA_TABLE,
    STEPS_SCHEMA,
)
from repro.obs.steplog import StepLogError, validate_steps_doc
from repro.obs.tracer import ObservabilityError

#: Schema -> (validator, the typed error its module raises).
VALIDATORS = {
    PROFILE_SCHEMA: (validate_profile_doc, ProfileError),
    BENCH_SCHEMA: (validate_bench_doc, ArtifactError),
    BENCHDIFF_SCHEMA: (validate_benchdiff_doc, ArtifactError),
    ALERTS_SCHEMA: (validate_timeline_doc, MonitorError),
    FLEET_SCHEMA: (validate_fleet_doc, MonitorError),
    STEPS_SCHEMA: (validate_steps_doc, StepLogError),
    CRITPATH_SCHEMA: (validate_critpath_doc, CritPathError),
    DIFF_SCHEMA: (validate_diff_doc, DiffError),
}

#: What reading a file can raise: IO and gzip errors (``OSError``,
#: truncated ``EOFError``, corrupt ``zlib.error``) and bad text
#: (``UnicodeDecodeError`` is a ``ValueError``).
_READ_ERRORS = (OSError, EOFError, ValueError, zlib.error)


class _NonFiniteError(ValueError):
    """A ``NaN``/``Infinity`` literal: Python's json reads it, JSON has
    no such number."""


def _reject_constant(name: str):
    raise _NonFiniteError(f"non-finite number {name} is not JSON")


def _loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _is_snapshot(doc: list) -> bool:
    """A JSON array that opens with a metric record: a metrics snapshot."""
    return (bool(doc) and isinstance(doc[0], dict)
            and doc[0].get("type") == "metric")


def load_doc(path: str, schema: Optional[str] = None):
    """Read, parse and validate one artifact file; returns the document
    (a dict, or a list of Chrome events or JSONL records).

    ``schema`` names the schema the caller needs: a file holding any
    other is rejected, and every error is then that schema's typed
    error (e.g. :class:`~repro.obs.steplog.StepLogError`).  Otherwise
    read errors and unknown schemas raise
    :class:`~repro.obs.tracer.ObservabilityError`.
    """
    error = VALIDATORS[schema][1] if schema else ObservabilityError
    try:
        with open_text(path) as f:
            text = f.read()
    except _READ_ERRORS as exc:
        raise error(f"{path}: cannot read: {exc}") from None
    try:
        doc = _loads(text)
    except ValueError as exc:
        if schema is not None or isinstance(exc, _NonFiniteError):
            raise error(f"{path}: cannot read: {exc}") from None
        doc = None  # not one JSON value: a JSONL log, or garbage
    found = doc.get("schema") if isinstance(doc, dict) else None
    if schema is not None and found != schema:
        raise error(f"{path}: expected schema {schema!r}, got {found!r}")
    try:
        if found is not None:
            if not isinstance(found, str) or found not in VALIDATORS:
                raise ObservabilityError(
                    f"unknown schema {found!r} (expected one of "
                    f"{sorted(VALIDATORS)})")
            VALIDATORS[found][0](doc)
        elif isinstance(doc, list) and _is_snapshot(doc):
            validate_metrics_snapshot(doc)
        elif isinstance(doc, list):
            validate_chrome_trace(doc)
        else:
            doc = []
            for lineno, line in enumerate(text.splitlines(), 1):
                if line.strip():
                    try:
                        doc.append(_loads(line))
                    except ValueError as exc:
                        raise ObservabilityError(
                            f"line {lineno}: invalid JSON ({exc})"
                        ) from None
            validate_jsonl_records(doc)
    except ReproError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return doc


def describe(doc) -> str:
    """One-line summary of a document :func:`load_doc` accepted."""
    if isinstance(doc, dict):
        return f"{doc['schema']} ({SCHEMA_TABLE[doc['schema']]})"
    if "ph" in doc[0]:
        return f"Chrome trace, {len(doc)} events"
    if _is_snapshot(doc):
        return f"metrics snapshot, {len(doc)} instruments"
    return f"JSONL event log, {len(doc)} records"


__all__ = ["VALIDATORS", "describe", "load_doc"]
