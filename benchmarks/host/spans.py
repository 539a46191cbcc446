"""Outside-in span recorder for the host-cost benchmark.

The recorder wraps the public entry points of each ``repro`` layer from
the benchmark's side, so nothing under ``src/`` changes.  A layer's
self time is its span minus the time covered by its child spans; each
op is a root span named ``other``, whose self time is the residual, so
the layer self times sum to the traced wall time exactly.

Bookkeeping that is not a plain span (the DAG fingerprint behind
``core.pipeline.dag_repeat_ratio``) runs with the recorder's clock
paused, so it lands in no layer and not in the traced wall time either.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

OTHER = "other"
_ABSENT = object()
PREFILL = "core.pipeline.run_prefill"
SIM = "hw.sim.run"

#: Layer name -> the callables wrapped for it, as ``(module, attribute
#: path)``.  A dotted attribute path names a method, patched on the
#: class; a plain name is a module function, rebound in every loaded
#: ``repro`` module that imported it by name.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    SIM: (("repro.hw.sim", "Simulator.run"),),
    "core.dependency.build_task_graph": (
        ("repro.core.dependency", "build_task_graph"),),
    PREFILL: (("repro.core.pipeline", "run_prefill"),),
    "graph.build_chunk": (("repro.graph.builder",
                           "GraphBuilder.build_chunk"),),
    "core.engine.construct": (("repro.core.engine",
                               "LlmNpuEngine.__init__"),),
    "core.engine.infer": (("repro.core.engine", "LlmNpuEngine.infer"),),
    "core.service.run": (("repro.core.service", "LlmService.run"),),
    "obs.monitor": tuple(
        ("repro.obs.monitor", f"SloMonitor.{name}") for name in (
            "observe_request", "observe_fault", "observe_step",
            "observe_steps", "observe_decision", "compliance", "timeline",
            "scheduler_summary", "decision_counts")),
    "obs.steplog": tuple(
        ("repro.obs.steplog", name) for name in (
            "StepLogger.on_step", "StepLogger.on_decision",
            "StepLogger.on_record", "StepLogger.to_dict",
            "validate_steps_doc")),
    "obs.critical_path": tuple(
        ("repro.obs.critical_path", name) for name in (
            "critical_path", "request_critical_path", "critpath_doc",
            "validate_critical_path")),
    "obs.whatif": tuple(
        ("repro.obs.whatif", name) for name in (
            "capture_engine_run", "predict", "resimulate")),
    "obs.diff": (("repro.obs.diff", "diff_docs"),
                 ("repro.obs.diff", "validate_diff")),
    "serialize": (("workloads", "serialize"),),
}


#: Modules, besides every ``repro.*`` submodule, in which a wrapped
#: function is rebound wherever ``from x import f`` copied it.
REBIND_MODULES = ("repro", "workloads")


def _count_sim(rec: "Recorder", args, kwargs, result) -> None:
    tasks = args[1] if len(args) > 1 else kwargs["tasks"]
    policy = args[2] if len(args) > 2 else kwargs.get("policy")
    rec.counts["hw.sim.run.tasks"] += len(tasks)
    if rec.stack[-1][0] == PREFILL:
        rec.prefill_dag = hash((tuple(tasks), type(policy).__name__))


def _count_lowering(rec: "Recorder", args, kwargs, result) -> None:
    rec.counts["core.dependency.build_task_graph.tasks"] += len(result)


def _count_prefill(rec: "Recorder", args, kwargs, result) -> None:
    # A prefill that simulated nothing reused an earlier result, so it
    # counts as a repeat of a DAG already simulated.
    key, rec.prefill_dag = rec.prefill_dag, None
    if key is None or key in rec.seen_dags:
        rec.counts["core.pipeline.dag_repeats"] += 1
    rec.seen_dags.add(key)


def _count_service(rec: "Recorder", args, kwargs, result) -> None:
    rec.counts["core.service.requests"] += len(result)
    rec.counts["core.service.steps"] += len(getattr(args[0], "steps", ()))


#: Per-target counters, run after the target returns with the clock
#: paused: ``hook(recorder, args, kwargs, result)``.
HOOKS: Dict[Tuple[str, str], Callable] = {
    ("repro.hw.sim", "Simulator.run"): _count_sim,
    ("repro.core.dependency", "build_task_graph"): _count_lowering,
    ("repro.core.pipeline", "run_prefill"): _count_prefill,
    ("repro.core.service", "LlmService.run"): _count_service,
}


class Recorder:
    """Per-layer self time, call counts and optional raw spans."""

    def __init__(self, layers=None, keep_spans: bool = False):
        self.layers = dict(LAYERS if layers is None else layers)
        self.keep_spans = keep_spans
        self.self_s: Dict[str, float] = {name: 0.0 for name in self.layers}
        self.self_s[OTHER] = 0.0
        self.calls: Dict[str, int] = {name: 0 for name in self.layers}
        self.counts: Dict[str, int] = {
            "hw.sim.run.tasks": 0,
            "core.dependency.build_task_graph.tasks": 0,
            "core.pipeline.dag_repeats": 0,
            "core.service.requests": 0,
            "core.service.steps": 0,
        }
        self.seen_dags: set = set()
        self.prefill_dag: Optional[int] = None
        self.wall_s = 0.0
        self.ops = 0
        self.stack: List[list] = []
        self.spans: List[Tuple[str, float, float, int]] = []
        self.missing: List[str] = []
        self._paused_s = 0.0
        self._undo: List[Tuple[object, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused_s

    # -- installation ---------------------------------------------------------

    def install(self) -> "Recorder":
        """Wrap every reachable target; warn about the missing ones."""
        for layer, targets in self.layers.items():
            for module_name, path in targets:
                try:
                    self._wrap_target(layer, module_name, path)
                except (ImportError, AttributeError):
                    name = f"{module_name}.{path}"
                    self.missing.append(name)
                    print(f"host-bench: warning: cannot wrap {name}; "
                          f"its metrics read null", file=sys.stderr)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_target(self, layer: str, module_name: str, path: str) -> None:
        # ``import a.b.c as m`` can yield a function when the package
        # re-exports one under the submodule's name; sys.modules cannot.
        importlib.import_module(module_name)
        module = sys.modules[module_name]
        hook = HOOKS.get((module_name, path))
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = getattr(owner, attr)
            self._set(owner, attr, self._wrapper(layer, original, hook))
            return
        original = getattr(module, path)
        wrapper = self._wrapper(layer, original, hook)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name in REBIND_MODULES
                                   or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def _wrapper(self, layer: str, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.stack:
                return fn(*args, **kwargs)
            frame = [layer, rec.clock(), 0.0]
            rec.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(frame)
            if hook is not None:
                paused = time.perf_counter()
                hook(rec, args, kwargs, result)
                rec._paused_s += time.perf_counter() - paused
            return result
        return wrapper

    def _close(self, frame: list) -> None:
        end = self.clock()
        self.stack.pop()
        duration = end - frame[1]
        layer = frame[0]
        self.self_s[layer] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.wall_s += duration
            self.ops += 1
        if layer != OTHER:
            self.calls[layer] += 1
        if self.keep_spans:
            self.spans.append((layer, frame[1], duration, len(self.stack)))

    # -- ops ------------------------------------------------------------------

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` as one traced op (a root ``other`` span)."""
        frame = [OTHER, self.clock(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args)
        finally:
            self._close(frame)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Totals over every op recorded so far (JSON-ready)."""
        return {
            "ops": self.ops,
            "wall_s": self.wall_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "dag_distinct": len(self.seen_dags),
            "missing": list(self.missing),
            "absent_layers": [
                layer for layer, targets in self.layers.items()
                if all(f"{m}.{p}" in self.missing for m, p in targets)],
        }

    def chrome_trace(self) -> dict:
        """Recorded spans as a Chrome-trace document Perfetto loads."""
        t0 = min((start for _, start, _, _ in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"name": layer, "cat": layer.split(".")[0], "ph": "X",
                 "ts": (start - t0) * 1e6, "dur": duration * 1e6,
                 "pid": 1, "tid": 1, "args": {"depth": depth}}
                for layer, start, duration, depth in self.spans],
        }
