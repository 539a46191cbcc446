"""Hostile artifacts: every saved schema, broken five ways, must end in a
typed ``ReproError`` from its validator and ``llmnpu validate`` exit 2.

Each case starts from a valid generated artifact and breaks it by
truncating its ``.gz``, replacing or deleting its ``schema``, putting
NaN/inf in a validated number, deleting a required key, or emptying
it.  JSONL logs, metrics snapshots and Chrome traces have no ``schema``
key; their record ``type`` / event ``ph`` plays that role.
"""

import copy
import functools
import gzip
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.cli import main  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    Tracer,
    benchdiff_doc,
    compare_artifacts,
    jsonl_records,
    load_doc,
    make_artifact,
    open_text,
    service_timeline,
    to_chrome_trace,
    validate_chrome_trace,
    validate_jsonl_records,
)
from repro.obs.metrics import validate_metrics_snapshot  # noqa: E402
from repro.obs.validate import VALIDATORS  # noqa: E402


@functools.lru_cache(maxsize=None)
def _artifacts():
    """name -> a valid document of that format (built once)."""
    from repro.eval.diff_eval import (
        injected_slowdown_docs,
        injected_slowdown_diff,
    )
    from repro.eval.fleet import fault_storm_monitor, fleet_golden_json
    from repro.eval.profiling import golden_profile_json
    from repro.eval.service_eval import (
        golden_steplog_json,
        service_golden_records,
    )
    from repro.eval.report import Table

    table = Table(title="t", columns=["config", "e2e s", "tok/s"])
    table.add_row("baseline", 2.0, 100.0)
    base = make_artifact("t", table, env={"python": "3"})
    table.rows[0][1] = 2.5
    slower = make_artifact("t", table, env={"python": "3"})
    service = service_golden_records(seed=42, tracer=Tracer(),
                                     metrics=MetricsRegistry())
    critpath, _slow = injected_slowdown_docs()
    return {
        "profile": json.loads(golden_profile_json(seed=42)),
        "bench": base.to_dict(),
        "benchdiff": benchdiff_doc(compare_artifacts(base, slower)),
        "alerts": fault_storm_monitor(seed=42).timeline(),
        "fleet": json.loads(fleet_golden_json(seed=42)),
        "steps": json.loads(golden_steplog_json(seed=42, batched=True)),
        "critpath": critpath,
        "diff": injected_slowdown_diff(),
        "jsonl": jsonl_records(service.tracer, service.metrics_registry),
        "metrics": service.metrics_registry.snapshot(),
        "chrome": to_chrome_trace(service_timeline(service)),
    }


#: Per format: key paths the validator requires, and numbers it checks.
#: ``"*"`` is the first key of an object; a dict picks the first list
#: element holding those items.
_PATHS = {
    "profile": {
        "required": [("window_s",), ("processors",), ("flamegraph",),
                     ("processors", 0, "idle_s"),
                     ("processors", 0, "idle_by_cause", "dependency"),
                     ("operators", 0, "proc"), ("energy", "total_j")],
        "numeric": [("window_s",), ("processors", 0, "busy_s"),
                    ("processors", 0, "idle_by_cause", "sync_wait"),
                    ("operators", 0, "busy_s"), ("energy", "platform_j"),
                    ("metrics", {"kind": "counter"}, "value")],
    },
    "bench": {
        "required": [("name",), ("metrics",), ("env",),
                     ("metrics", "*", "direction"),
                     ("metrics", "*", "value")],
        "numeric": [("metrics", "*", "value")],
    },
    "benchdiff": {
        "required": [("ok",), ("n_regressed",), ("deltas",),
                     ("deltas", 0, "verdict"), ("deltas", 0, "candidate")],
        "numeric": [("rel_tol",), ("deltas", 0, "baseline"),
                    ("deltas", 0, "rel_delta")],
    },
    "alerts": {
        "required": [("source",), ("slos",), ("incidents",),
                     ("rules", 0, "short_window_s"),
                     ("incidents", 0, "links"), ("incidents", 0, "slo")],
        "numeric": [("slos", 0, "target"), ("rules", 0, "long_window_s"),
                    ("incidents", 0, "pending_s"),
                    ("incidents", 0, "firing_s")],
    },
    "fleet": {
        "required": [("n_devices",), ("alerts",), ("sketches",),
                     ("devices", 0, "goodput_rps"),
                     ("percentiles", "*", "count"),
                     ("alerts", "incidents", 0, "state")],
        "numeric": [("devices", 0, "goodput_rps"),
                    ("devices", 0, "ttft_p95_s"),
                    ("percentiles", "*", "p50"),
                    ("alerts", "slos", 0, "target")],
    },
    "steps": {
        "required": [("n_decisions",), ("steps",),
                     ("steps", 0, "items"), ("steps", 0, "queue_depths"),
                     ("decisions", 0, "action"),
                     ("requests", 0, "breakdown")],
        "numeric": [("steps", 0, "end_s"), ("decisions", 0, "t_s"),
                    ("requests", 0, "breakdown", "queue_s"),
                    ("steps", 0, "items", 0, "end_s")],
    },
    "critpath": {
        "required": [("paths",), ("totals",), ("paths", 0, "e2e_s"),
                     ("paths", 0, "slack"),
                     ("paths", 0, "segments", 0, "edge"),
                     ("paths", 0, "segments", -1, "wait_s")],
        "numeric": [("paths", 0, "e2e_s"), ("paths", 0, "work_s"),
                    ("paths", 0, "segments", 0, "duration_s"),
                    ("paths", 0, "slack", 0, "slack_s"),
                    ("totals", "wait_s")],
    },
    "diff": {
        "required": [("tol_s",), ("identical",), ("e2e",),
                     ("requests", 0, "new_e2e_s"),
                     ("requests", 0, "segments", 0, "status")],
        "numeric": [("tol_s",), ("e2e", "delta_s"),
                    ("requests", 0, "base_e2e_s"),
                    ("requests", 0, "segments", 0, "delta_s")],
    },
    "jsonl": {
        "required": [({"type": "span"}, "start_s"),
                     ({"type": "instant"}, "ts_s"),
                     ({"type": "metric"}, "labels")],
        "numeric": [({"type": "span"}, "end_s"),
                    ({"type": "instant"}, "ts_s"),
                    ({"kind": "counter"}, "value"),
                    ({"kind": "histogram"}, "mean")],
    },
    "metrics": {
        "required": [({"kind": "counter"}, "value"),
                     ({"kind": "counter"}, "labels"),
                     ({"kind": "histogram"}, "count")],
        "numeric": [({"kind": "counter"}, "value"),
                    ({"kind": "histogram"}, "mean")],
    },
    "chrome": {
        "required": [({"ph": "X"}, "dur"), ({"ph": "X"}, "pid"),
                     ({"ph": "M"}, "args"), ({"ph": "i"}, "ts")],
        "numeric": [({"ph": "X"}, "ts"), ({"ph": "X"}, "dur"),
                    ({"ph": "i"}, "ts")],
    },
}

#: The field that names a document's format, per format.
_TYPE_FIELD = {"jsonl": ({"type": "span"}, "type"),
               "metrics": ({"type": "metric"}, "type"),
               "chrome": ({"ph": "X"}, "ph")}

FORMATS = sorted(_PATHS)


def _resolve(doc, path):
    """Concrete key path of a ``_PATHS`` entry in ``doc``."""
    out, node = [], doc
    for step in path:
        if step == "*":
            step = sorted(node)[0]
        elif isinstance(step, dict):
            step = next(i for i, item in enumerate(node)
                        if all(item.get(k) == v for k, v in step.items()))
        out.append(step)
        node = node[step]
    return out


def _set(doc, path, value=None, delete=False):
    """A copy of ``doc`` with the resolved ``path`` set or deleted."""
    doc = copy.deepcopy(doc)
    *parents, last = _resolve(doc, path)
    node = doc
    for step in parents:
        node = node[step]
    if delete:
        del node[last]
    else:
        node[last] = value
    return doc


def _validate(fmt, doc):
    if fmt == "jsonl":
        validate_jsonl_records(doc)
    elif fmt == "metrics":
        validate_metrics_snapshot(doc)
    elif fmt == "chrome":
        validate_chrome_trace(doc)
    else:
        VALIDATORS[_artifacts()[fmt]["schema"]][0](doc)


def _text(fmt, doc):
    if fmt == "jsonl":
        return "".join(json.dumps(r) + "\n" for r in doc)
    return json.dumps(doc)  # NaN/inf are written as-is, not refused


def _assert_rejected(fmt, doc, path):
    """Typed error from the validator and from ``llmnpu validate``."""
    with pytest.raises(ReproError):
        _validate(fmt, doc)
    with open(path, "w") as f:
        f.write(_text(fmt, doc))
    assert main(["validate", str(path)]) == 2


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@pytest.mark.parametrize("fmt", FORMATS)
def test_generated_artifact_is_valid(fmt, workdir):
    doc = _artifacts()[fmt]
    _validate(fmt, doc)
    path = workdir / f"valid_{fmt}.json.gz"
    with open_text(str(path), "w") as f:
        f.write(_text(fmt, doc))
    assert load_doc(str(path)) == doc
    assert main(["validate", str(path)]) == 0


@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_truncated_gzip(workdir, fmt, data):
    path = workdir / "truncated.json.gz"
    with open_text(str(path), "w") as f:
        f.write(_text(fmt, _artifacts()[fmt]))
    packed = path.read_bytes()
    path.write_bytes(packed[:data.draw(st.integers(0, len(packed) - 1))])
    with pytest.raises(ReproError):
        load_doc(str(path))
    assert main(["validate", str(path)]) == 2


@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_wrong_or_missing_schema(workdir, fmt, data):
    doc = _artifacts()[fmt]
    path = _TYPE_FIELD.get(fmt, ("schema",))
    own = doc.get("schema") if isinstance(doc, dict) else None
    wrong = data.draw(st.sampled_from(
        [None, "", "repro.nope/v1", 3, ["x"]]
        + [schema for schema in sorted(VALIDATORS) if schema != own]))
    if data.draw(st.booleans()):
        broken = _set(doc, path, delete=True)
    else:
        broken = _set(doc, path, wrong)
    _assert_rejected(fmt, broken, workdir / "schema.json")


@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_non_finite_number(workdir, fmt, data):
    path = data.draw(st.sampled_from(_PATHS[fmt]["numeric"]))
    value = data.draw(st.sampled_from(
        [float("nan"), float("inf"), float("-inf")]))
    broken = _set(_artifacts()[fmt], path, value)
    _assert_rejected(fmt, broken, workdir / "nonfinite.json")


@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_missing_required_key(workdir, fmt, data):
    path = data.draw(st.sampled_from(_PATHS[fmt]["required"]))
    broken = _set(_artifacts()[fmt], path, delete=True)
    _assert_rejected(fmt, broken, workdir / "missing.json")


@pytest.mark.parametrize("fmt", FORMATS)
def test_empty_document(workdir, fmt):
    empty = [] if fmt in _TYPE_FIELD else {}
    _assert_rejected(fmt, empty, workdir / "empty.json")
    (workdir / "blank.json").write_text("")
    assert main(["validate", str(workdir / "blank.json")]) == 2


class TestDiffAndExplainInputs:
    """``llmnpu diff`` and ``explain --steplog`` read through
    :func:`load_doc`: a malformed input is a usage error (exit 2)."""

    @pytest.fixture()
    def critpath_file(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(_artifacts()["critpath"]))
        return path

    def _diff(self, base, broken, tmp_path):
        path = tmp_path / "new.json"
        path.write_text(json.dumps(broken))
        return main(["diff", str(base), str(path)])

    def test_missing_segment_edge(self, critpath_file, tmp_path, capsys):
        broken = _set(_artifacts()["critpath"],
                      ("paths", 0, "segments", 1, "edge"), delete=True)
        assert self._diff(critpath_file, broken, tmp_path) == 2
        assert "'edge'" in capsys.readouterr().err

    def test_nan_e2e(self, critpath_file, tmp_path, capsys):
        broken = _set(_artifacts()["critpath"], ("paths", 0, "e2e_s"),
                      float("nan"))
        assert self._diff(critpath_file, broken, tmp_path) == 2
        assert "diff:" in capsys.readouterr().err

    def test_list_task_id(self, critpath_file, tmp_path, capsys):
        # diff keys segments by task id; a list there must be caught
        # by the validator, not crash the alignment.
        broken = _set(_artifacts()["critpath"],
                      ("paths", 0, "segments", 1, "task_id"), ["sg1", 0])
        assert self._diff(critpath_file, broken, tmp_path) == 2
        err = capsys.readouterr().err
        assert "'task_id' must be a string" in err
        assert "Traceback" not in err

    def test_duplicate_path_source(self, critpath_file, tmp_path, capsys):
        # diff aligns requests by source; a second path with the same
        # source would be dropped silently.
        broken = copy.deepcopy(_artifacts()["critpath"])
        broken["paths"].append(copy.deepcopy(broken["paths"][0]))
        broken["n_paths"] = len(broken["paths"])
        assert self._diff(critpath_file, broken, tmp_path) == 2
        err = capsys.readouterr().err
        assert "duplicate source" in err
        assert "Traceback" not in err

    def test_truncated_gzip(self, critpath_file, tmp_path, capsys):
        packed = gzip.compress(critpath_file.read_bytes())
        trunc = tmp_path / "trunc.json.gz"
        trunc.write_bytes(packed[:len(packed) // 2])
        assert main(["diff", str(critpath_file), str(trunc)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_explain_truncated_steplog(self, tmp_path, capsys):
        packed = gzip.compress(
            json.dumps(_artifacts()["steps"]).encode())
        trunc = tmp_path / "trunc.json.gz"
        trunc.write_bytes(packed[:len(packed) // 2])
        assert main(["explain", "--steplog", str(trunc)]) == 2
        assert "cannot read" in capsys.readouterr().err
