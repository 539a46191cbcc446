"""Trace exporters (Chrome/Perfetto timeline, JSONL event log) and the
one text-artifact writer, :func:`write_text`.

The Chrome export maps tracer tracks onto the trace format's
process/thread axes with a **stable** pid/tid assignment: processes are
the sorted unique ``proc`` names (pid 1, 2, ...), threads the sorted
unique ``thread`` names within each process.  Two runs of the same
seeded workload therefore produce byte-identical trace files — the
property ``scripts/check_determinism.sh`` enforces.

:func:`service_timeline` builds the paper's cross-layer view: the
service tracer's request spans (queued → retries → prefill → decode)
merged with the per-request :class:`~repro.hw.trace.Trace` task events
(each completed request's simulated prefill schedule and per-token
decode, shifted from its engine-relative origin onto the service
clock).  Open the saved file in https://ui.perfetto.dev or
``chrome://tracing``.

The JSONL log is the machine-readable twin: one JSON object per tracer
record (emission order) followed by one per metrics instrument.
:func:`validate_chrome_trace` and :func:`validate_jsonl_records` check
saved files of either format (``llmnpu validate``).
"""

from __future__ import annotations

import gzip
import io
import json
import os
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.obs.metrics import MetricsRegistry, validate_metric_record
from repro.obs.schemas import finite, require
from repro.obs.tracer import Instant, ObservabilityError, Span, Tracer

#: Serial-execution tolerance, matching ``Trace.validate_serial``.
_OVERLAP_TOL_S = 1e-12


def open_text(path: str, mode: str = "r"):
    """Open a text file, transparently gzipping on a ``.gz`` suffix.

    1000-device fleet traces run to hundreds of megabytes uncompressed;
    every artifact reader and writer routes through here (every writer
    via :func:`write_text`) so ``foo.jsonl.gz`` Just Works.  Writes pin
    the gzip header (``mtime=0``, no embedded filename), so equal text
    always compresses to equal bytes regardless of path or wall clock —
    compressed goldens stay byte-diffable.
    """
    if path.endswith(".gz"):
        if "w" in mode:
            return io.TextIOWrapper(_DeterministicGzipWriter(path),
                                    encoding="utf-8")
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_text(path: str, text: str) -> str:
    """Write ``text`` and a newline to ``path``, creating its directory;
    the one text-artifact write path (gzipped on a ``.gz`` suffix, see
    :func:`open_text`).  Returns ``path``."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open_text(path, "w") as f:
        f.write(text)
        f.write("\n")
    return path


class _DeterministicGzipWriter(gzip.GzipFile):
    """A gzip writer whose bytes depend only on the written text.

    ``GzipFile(path, ...)`` embeds the basename in the header's FNAME
    field, so renaming a golden changes its bytes; opening the raw
    stream ourselves with ``filename=""`` (and ``mtime=0``) strips both
    varying header fields.  Owns the raw stream: closing the writer
    closes it too (plain ``GzipFile`` leaves external fileobjs open).
    """

    def __init__(self, path: str):
        raw = open(path, "wb")
        try:
            super().__init__(filename="", mode="wb", fileobj=raw,
                             mtime=0)
        except Exception:
            raw.close()
            raise
        self._raw = raw

    def close(self):
        try:
            super().close()
        finally:
            self._raw.close()


def to_chrome_trace(tracer: Tracer,
                    steps: Optional[list] = None) -> List[dict]:
    """Tracer records as Chrome-trace events with stable pid/tid mapping.

    ``steps`` (a run's :class:`~repro.core.scheduler.StepRecord` list or
    their serialized dicts) additionally merges the scheduler's counter
    tracks — queue depth, batch occupancy, KV headroom — onto the
    ``service`` process (see :func:`step_counter_events`).
    """
    procs = sorted({e.proc for e in tracer.events})
    pids = {proc: i + 1 for i, proc in enumerate(procs)}
    tids: Dict[Tuple[str, str], int] = {}
    out: List[dict] = []
    for proc in procs:
        pid = pids[proc]
        out.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": proc},
        })
        threads = sorted({e.thread for e in tracer.events
                          if e.proc == proc})
        for j, thread in enumerate(threads):
            tids[(proc, thread)] = j + 1
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": j + 1, "args": {"name": thread},
            })
    body: List[dict] = []
    for e in tracer.events:
        pid, tid = pids[e.proc], tids[(e.proc, e.thread)]
        if isinstance(e, Span):
            body.append({
                "name": e.name, "cat": e.cat or "task", "ph": "X",
                "pid": pid, "tid": tid, "ts": e.start_s * 1e6,
                "dur": e.duration_s * 1e6, "args": dict(e.args),
            })
        else:
            body.append({
                "name": e.name, "cat": e.cat or "task", "ph": "i",
                "s": "t", "pid": pid, "tid": tid, "ts": e.ts_s * 1e6,
                "args": dict(e.args),
            })
    if steps:
        counter_pid = pids.get("service", len(procs) + 1)
        if "service" not in pids:
            out.append({
                "name": "process_name", "ph": "M", "pid": counter_pid,
                "tid": 0, "args": {"name": "service"},
            })
        body.extend(step_counter_events(steps, pid=counter_pid))
    body.sort(key=lambda ev: (ev["ts"], ev["pid"], ev["tid"],
                              ev["ph"], ev["name"]))
    return out + body


def step_counter_events(steps, pid: int = 1) -> List[dict]:
    """Perfetto counter-track ('C') events from a run's step records.

    Three tracks, sampled at each step's start on process ``pid``:

    * ``queue depth`` — waiting requests per tier (stacked series);
    * ``batch occupancy`` — the step's prefill vs. decode token split;
    * ``kv headroom`` — budget minus reserved bytes (only when the run
      had a ``kv_budget_bytes``; without a budget the reservation is
      emitted as ``kv reserved`` instead).

    Accepts :class:`~repro.core.scheduler.StepRecord` objects or their
    ``repro.steps/v1`` dicts.  Counter events carry no duration, so
    :func:`validate_timeline`'s overlap check ignores them.
    """
    def get(step, key):
        return step[key] if isinstance(step, dict) else getattr(step, key)

    events: List[dict] = []
    for step in steps:
        ts = get(step, "start_s") * 1e6
        depths = get(step, "queue_depths")
        if not isinstance(depths, dict):
            depths = dict(depths)
        events.append({
            "name": "queue depth", "cat": "scheduler", "ph": "C",
            "pid": pid, "tid": 0, "ts": ts,
            "args": {tier: depths.get(tier, 0)
                     for tier in sorted(depths)} or {"total": 0},
        })
        events.append({
            "name": "batch occupancy", "cat": "scheduler", "ph": "C",
            "pid": pid, "tid": 0, "ts": ts,
            "args": {"prefill_tokens": get(step, "prefill_tokens"),
                     "decode_tokens": get(step, "decode_tokens")},
        })
        kv_budget = get(step, "kv_budget_bytes")
        reserved = get(step, "kv_reserved_bytes")
        if kv_budget is not None:
            events.append({
                "name": "kv headroom", "cat": "scheduler", "ph": "C",
                "pid": pid, "tid": 0, "ts": ts,
                "args": {"bytes": kv_budget - reserved},
            })
        else:
            events.append({
                "name": "kv reserved", "cat": "scheduler", "ph": "C",
                "pid": pid, "tid": 0, "ts": ts,
                "args": {"bytes": reserved},
            })
    return events


def save_chrome_trace(path: str, tracer: Tracer) -> None:
    """Write the Chrome-trace JSON (deterministic byte output)."""
    write_text(path, json.dumps(to_chrome_trace(tracer), sort_keys=True))


def validate_timeline(events: List[dict], tol: float = _OVERLAP_TOL_S) -> None:
    """``Trace.validate_serial`` for Chrome events: per (pid, tid), no
    two complete ('X') events overlap.  Raises :class:`SchedulingError`.
    """
    by_track: Dict[Tuple[int, int], List[dict]] = {}
    for e in events:
        if e.get("ph") == "X":
            by_track.setdefault((e["pid"], e["tid"]), []).append(e)
    for (pid, tid), track in sorted(by_track.items()):
        track.sort(key=lambda ev: (ev["ts"], ev["ts"] + ev["dur"]))
        for a, b in zip(track, track[1:]):
            if b["ts"] < a["ts"] + a["dur"] - tol * 1e6:
                raise SchedulingError(
                    f"pid {pid} tid {tid}: events {a['name']!r} and "
                    f"{b['name']!r} overlap"
                )


#: Required keys and types of each Chrome event phase
#: (:func:`to_chrome_trace`, :func:`step_counter_events`).
_CHROME_EVENTS = {
    "M": {"name": str, "pid": int, "args": dict},
    "X": {"name": object, "cat": object, "pid": int, "tid": int,
          "ts": float, "dur": float},
    "i": {"name": object, "pid": int, "tid": int, "ts": float},
    "C": {"name": object, "pid": int, "tid": int, "ts": float,
          "args": dict},
}


def validate_chrome_trace(events) -> None:
    """Check a saved Chrome trace: known event phases with their keys,
    named processes, non-negative complete events, numeric counter
    series, at least one complete event, and :func:`validate_timeline`.
    Raises :class:`~repro.obs.tracer.ObservabilityError` (overlaps
    raise :class:`SchedulingError`).
    """
    if not isinstance(events, list):
        raise ObservabilityError("a Chrome trace must be a JSON array")
    named = set()
    complete = set()
    for i, e in enumerate(events):
        where = f"event {i}"
        ph = e.get("ph") if isinstance(e, dict) else None
        if not isinstance(ph, str) or ph not in _CHROME_EVENTS:
            raise ObservabilityError(f"{where}: unknown phase {ph!r}")
        require(e, _CHROME_EVENTS[ph], where, ObservabilityError)
        if ph == "M":
            if e["name"] not in ("process_name", "thread_name"):
                raise ObservabilityError(
                    f"{where}: unknown metadata {e['name']!r}")
            if "name" not in e["args"]:
                raise ObservabilityError(
                    f"{where}: metadata without args.name")
            named.add(e["pid"])
        elif ph == "X":
            if e["ts"] < 0 or e["dur"] < 0:
                raise ObservabilityError(f"{where}: negative ts/dur")
            complete.add(e["pid"])
        elif ph == "C":
            if not e["args"] or not all(map(finite, e["args"].values())):
                raise ObservabilityError(
                    f"{where}: counter needs a non-empty numeric series")
    if not complete:
        raise ObservabilityError("no complete events")
    unnamed = sorted(complete - named)
    if unnamed:
        raise ObservabilityError(
            f"pid {unnamed[0]} has events but no process_name")
    validate_timeline(events)


def service_timeline(service, critpath: bool = False,
                     deltas: Optional[Dict[str, float]] = None) -> Tracer:
    """One merged timeline: service request spans + hw task events.

    Takes a traced :class:`~repro.core.service.LlmService` and returns a
    new tracer holding (a) every record the service emitted and (b) the
    simulated hardware schedule of every completed request — its prefill
    task events and per-token decode — shifted onto the service clock at
    the instant the successful execution attempt started.  Tracks:

    * ``service / req NNNNN`` — request lifecycle spans;
    * ``service / scheduler``, ``service / faults`` — queue ops, draws;
    * ``hw <model> / npu|cpu|gpu`` — the per-engine processor timelines.

    ``critpath=True`` stamps every hw span with an ``on_path`` arg
    (whether the task sits on its request's critical path), so Perfetto
    can highlight the gating chain — off by default to keep golden
    traces byte-identical.

    ``deltas`` (a ``{task_id: delta_s}`` map, e.g. from
    :func:`~repro.obs.diff.segment_deltas`) additionally stamps matching
    hw spans with a ``delta_ms`` arg, painting a run-to-run regression
    onto the timeline — also off by default.
    """
    merged = Tracer()
    merged.extend(service.tracer.events)
    decode_backend = service.config.decode_backend
    for record in service.requests:
        report = record.report
        if record.status != "completed" or report is None:
            continue
        on_path = None
        if critpath:
            from repro.obs.critical_path import request_critical_path
            path = request_critical_path(record,
                                         decode_backend=decode_backend)
            on_path = frozenset(seg.task_id for seg in path.segments)
        # The successful attempt spans [finish - e2e, finish]; everything
        # before it on this request is queueing/retry, which has no hw
        # schedule (failed attempts die inside the driver).
        add_trace_spans(merged, report.timeline(decode_backend),
                        f"hw {record.model}",
                        t0=record.finish_s - report.e2e_latency_s,
                        on_path=on_path, deltas=deltas,
                        request_id=record.request_id)
    return merged


def add_trace_spans(tracer: Tracer, trace, proc: str, t0: float = 0.0,
                    on_path: Optional[frozenset] = None,
                    deltas: Optional[Dict[str, float]] = None,
                    **args) -> None:
    """Add a :class:`~repro.hw.trace.Trace`'s events to ``tracer`` as
    spans on process ``proc``, one thread per processor, shifted by
    ``t0`` — how an inference's hardware timeline (its prefill tasks
    and decode steps, ``InferenceReport.timeline``) reaches Perfetto.

    Untagged events get category ``"task"``.  ``args`` go on every
    span; ``on_path`` (task ids) stamps an ``on_path`` arg on each span
    and ``deltas`` a ``delta_ms`` arg on the spans it names.
    """
    for ev in trace.events:
        extra = dict(args)
        if on_path is not None:
            extra["on_path"] = ev.task_id in on_path
        if deltas is not None and ev.task_id in deltas:
            extra["delta_ms"] = deltas[ev.task_id] * 1e3
        tracer.span(ev.task_id, proc=proc, thread=ev.proc,
                    start_s=t0 + ev.start_s, end_s=t0 + ev.end_s,
                    cat=ev.tag or "task", **extra)


def export_service_trace(service, path: str,
                         validate: bool = True,
                         counters: bool = False,
                         critpath: bool = False,
                         deltas: Optional[Dict[str, float]] = None,
                         ) -> List[dict]:
    """Merge, optionally validate, and save one service run's timeline.

    ``counters`` merges the scheduler counter tracks (queue depth,
    batch occupancy, KV headroom) derived from the run's step records —
    off by default so golden traces stay byte-identical.  ``critpath``
    stamps hw spans with an ``on_path`` arg and ``deltas`` with a
    ``delta_ms`` arg (see :func:`service_timeline`).  A ``.gz`` path
    writes the trace gzipped.
    """
    events = to_chrome_trace(service_timeline(service, critpath=critpath,
                                              deltas=deltas),
                             steps=service.steps if counters else None)
    if validate:
        validate_timeline(events)
    write_text(path, json.dumps(events, sort_keys=True))
    return events


# -- JSONL event log ----------------------------------------------------------


def jsonl_records(tracer: Optional[Tracer] = None,
                  metrics: Optional[MetricsRegistry] = None) -> List[dict]:
    """The JSONL export as a list of dicts (trace order, then metrics)."""
    records: List[dict] = []
    if tracer is not None:
        records.extend(e.to_record() for e in tracer.events)
    if metrics is not None:
        records.extend(metrics.snapshot())
    return records


def write_jsonl(path: str, tracer: Optional[Tracer] = None,
                metrics: Optional[MetricsRegistry] = None) -> int:
    """Write one JSON object per line; returns the record count."""
    records = jsonl_records(tracer, metrics)
    write_text(path, "\n".join(json.dumps(record, sort_keys=True)
                               for record in records))
    return len(records)


#: Required keys and types of the tracer's JSONL records
#: (:meth:`~repro.obs.tracer.Span.to_record` and ``Instant``'s).
_JSONL_RECORDS = {
    "span": {"name": object, "cat": object, "proc": object,
             "thread": object, "start_s": float, "end_s": float,
             "args": object},
    "instant": {"name": object, "cat": object, "proc": object,
                "thread": object, "ts_s": float, "args": object},
}


def validate_jsonl_records(records) -> None:
    """Check a JSONL event log's records: span/instant keys with
    non-negative finite timestamps (spans never end before they start),
    metric records per :func:`~repro.obs.metrics.validate_metric_record`,
    and at least one span and one metric.  Raises
    :class:`~repro.obs.tracer.ObservabilityError`.
    """
    counts = {"span": 0, "instant": 0, "metric": 0}
    for i, record in enumerate(records):
        where = f"record {i + 1}"
        kind = record.get("type") if isinstance(record, dict) else None
        if kind == "metric":
            validate_metric_record(record, where)
        elif isinstance(kind, str) and kind in _JSONL_RECORDS:
            require(record, _JSONL_RECORDS[kind], where,
                    ObservabilityError)
            start = record["start_s" if kind == "span" else "ts_s"]
            if start < 0:
                raise ObservabilityError(f"{where}: negative timestamp")
            if kind == "span" and record["end_s"] < start:
                raise ObservabilityError(
                    f"{where}: span ends before it starts")
        else:
            raise ObservabilityError(
                f"{where}: unknown record type {kind!r}")
        counts[kind] += 1
    for kind in ("span", "metric"):
        if not counts[kind]:
            raise ObservabilityError(f"no {kind} records")


def read_jsonl(path: str) -> List[dict]:
    """Load a (possibly gzipped) JSONL event log back into dicts."""
    records = []
    with open_text(path) as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
