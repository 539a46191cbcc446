#!/usr/bin/env python3
"""Host-cost benchmark of llmnpu: end-to-end workloads, per-layer spans.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/host/run.py --seed 0                  # all workloads
    python3 benchmarks/host/run.py --workload fleet --seed 0 --trace 0
    python3 benchmarks/host/run.py --workload fleet --seed 0 --trace 1 \\
        --trace-out fleet.trace.json
    python3 benchmarks/host/run.py compare A.json B.json
    python3 benchmarks/host/run.py --update-expected --seed 0

Every workload runs in fresh child processes, one after another, as a
closed loop of one client.  ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` first runs the workload untraced for
half the time, then replays the same ops in a second process with span
wrappers installed, and prints the per-layer metrics.  The last line of
standard output is one JSON object; ``--out`` also writes it, with the
per-op detail, to a file (by default under ``.bench_build/host/``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "host"
EXPECTED_DIR = HERE / "expected"

#: Fresh interpreters timed for ``setup_s``, after one discarded warm-up
#: run that compiles the bytecode.
SETUP_RUNS = 7

#: Conservation tolerance of the traced run: layer self times plus
#: ``other`` must equal the traced wall time.
CONSERVATION_TOL_S = 1e-3


class BenchError(Exception):
    """A child process failed; the run prints no result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# -- host-speed calibration ---------------------------------------------------

#: The calibration kernel's time at this host's full speed (see the
#: README); normalized times read as seconds at that speed.
CALIBRATION_REFERENCE_S = 6.2e-4
_CAL_KEYS = tuple(range(4096))


def calibrate() -> float:
    """Time a fixed pure-Python kernel that calls nothing in ``repro``.

    Shared hosts run in phases up to 1.7x slower for seconds at a time.
    Bracketing each op with this kernel and scaling the op's time by the
    kernel's reference time over its local time removes most of that
    from the end-to-end metrics.  The collector is off so that garbage an
    op left behind is never collected on the kernel's clock.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            table, total = {}, 0
            for i in range(5000):
                key = _CAL_KEYS[(i * 7919) & 4095]
                item = (key, total)
                table[key] = item
                total += item[0]
            times.append(time.perf_counter() - started)
        # The median of three ignores one kernel hit by an interrupt.
        return statistics.median(times)
    finally:
        if was_enabled:
            gc.enable()


def normalized(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` at reference host speed, from the kernel times around
    it."""
    return seconds * 2.0 * CALIBRATION_REFERENCE_S / (cal_before
                                                      + cal_after)


def normalized_op_s(child: dict) -> list:
    """Normalized times of a child's completed ops, in op order."""
    cal = child["cal_s"]
    return [normalized(s, cal[i], cal[i + 1])
            for i, s in enumerate(child["op_s"]) if s is not None]


# -- child processes ----------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # Bytecode goes to the build directory, never into the source tree.
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(role_args, timeout_s=None) -> dict:
    """Run ``run.py`` in a fresh interpreter; return its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve())] + role_args
    proc = subprocess.run(cmd, env=_child_env(), cwd=str(ROOT),
                          stdout=subprocess.PIPE, text=True,
                          timeout=timeout_s)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(role_args)} exited "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(role_args)} printed nothing")
    return json.loads(lines[-1])


def run_child(workload, seed, trace=0, seconds=None, ops=None,
              trace_out=None) -> dict:
    args = ["--role", "child", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    if ops is not None:
        args += ["--ops", str(ops)]
    if seconds is not None:
        args += ["--seconds", repr(seconds)]
    if trace_out:
        args += ["--trace-out", str(trace_out)]
    timeout = None if seconds is None else 3 * seconds + 60
    return _spawn(args, timeout_s=timeout)


def setup_times(workload, seed) -> list:
    """Set-up seconds of ``SETUP_RUNS`` fresh interpreters (warm-up
    discarded)."""
    args = ["--role", "setup", "--workload", workload, "--seed", str(seed)]
    probes = [_spawn(args, timeout_s=60) for _ in range(SETUP_RUNS + 1)]
    return [normalized(p["setup_s"], *p["cal_s"]) for p in probes[1:]]


def load_expected(seed: int, workload: str) -> list:
    path = EXPECTED_DIR / f"seed{seed}.json"
    if not path.exists():
        return []
    with open(path) as f:
        return json.load(f)["digests"].get(workload, [])


def child_main(args) -> int:
    """One workload in this process: time ops, check outputs, report."""
    sys.path.insert(0, str(HERE))
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed)
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder(keep_spans=bool(args.trace_out)).install()
    try:
        from repro.graph.builder import graph_cache_stats, \
            reset_graph_cache_stats
        reset_graph_cache_stats()
    except ImportError:
        graph_cache_stats = None
    expected = load_expected(args.seed, args.workload)
    op = workloads.make_op(args.workload)

    op_s, cal_s, digests, errors, mismatches = [], [calibrate()], [], [], []
    t_start = time.perf_counter()
    for i, inp in enumerate(inputs):
        if args.ops is not None:
            if i >= args.ops:
                break
        elif time.perf_counter() - t_start >= args.seconds:
            break
        t0 = time.perf_counter()
        try:
            if recorder is not None:
                payload, check = recorder.run_op(op, inp)
            else:
                payload, check = op(inp)
            elapsed = time.perf_counter() - t0
            check()
        except Exception as exc:  # one failed op must not end the run
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            op_s.append(None)
            digests.append(None)
        else:
            op_s.append(elapsed)
            digests.append(hashlib.sha256(payload.encode()).hexdigest())
            if i < len(expected) and expected[i] != digests[-1]:
                mismatches.append(i)
        cal_s.append(calibrate())

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(digests),
        "op_s": op_s,
        "cal_s": cal_s,
        "digests": digests,
        "errors": errors,
        "mismatches": mismatches,
        "checked_against_expected": min(len(expected), len(digests)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "graph_cache": graph_cache_stats() if graph_cache_stats else None,
    }
    if recorder is not None:
        recorder.uninstall()
        out["trace"] = recorder.summary()
        if args.trace_out:
            with open(args.trace_out, "w") as f:
                json.dump(recorder.chrome_trace(), f)
    for line in errors[:5]:
        print(f"host-bench: {args.workload}: {line}", file=sys.stderr)
    print(json.dumps(out))
    return 0


def setup_main(args) -> int:
    before = calibrate()
    started = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import workloads
    workloads.make_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - started
    print(json.dumps({"setup_s": setup_s, "cal_s": [before, calibrate()]}))
    return 0


# -- metrics ------------------------------------------------------------------


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end_metrics(child: dict, setup: list) -> dict:
    op_s = normalized_op_s(child)
    if not op_s:
        raise BenchError("no op completed")
    return {
        "throughput_ops_s": len(op_s) / sum(op_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p90_ms": _p90(op_s) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer_metrics(base: dict, traced: dict) -> dict:
    """Per-op layer metrics of a traced run (``None`` for a layer whose
    wrapped functions no longer exist)."""
    tr = traced["trace"]
    n = tr["ops"]
    if n == 0:
        raise BenchError("traced run completed no op")
    absent = set(tr["absent_layers"])
    self_s, calls, counts = tr["self_s"], tr["calls"], tr["counts"]

    def per_op(layer, value):
        return None if layer in absent else value / n

    def ratio(num, den, *layers):
        if any(layer in absent for layer in layers) or den == 0:
            return None
        return num / den

    sim, lower, prefill = ("hw.sim.run", "core.dependency.build_task_graph",
                           "core.pipeline.run_prefill")
    metrics = {}
    for layer in ("hw.sim.run", lower, prefill, "graph.build_chunk",
                  "core.engine.construct", "core.engine.infer",
                  "core.service.run", "obs.monitor", "obs.steplog",
                  "obs.critical_path", "obs.whatif", "obs.diff",
                  "serialize", "other"):
        metrics[f"{layer}.self_s"] = per_op(layer, self_s[layer])
    for layer in (sim, prefill, "graph.build_chunk", "core.engine.construct",
                  "core.engine.infer"):
        metrics[f"{layer}.calls"] = per_op(layer, calls[layer])
    metrics["hw.sim.run.tasks"] = per_op(sim, counts["hw.sim.run.tasks"])
    metrics["hw.sim.us_per_task"] = ratio(
        self_s[sim] * 1e6, counts["hw.sim.run.tasks"], sim)
    metrics[f"{lower}.tasks"] = per_op(lower, counts[f"{lower}.tasks"])
    metrics["core.pipeline.dag_repeat_ratio"] = ratio(
        counts["core.pipeline.dag_repeats"], calls[prefill], prefill, sim)
    cache = traced["graph_cache"]
    metrics["graph.cache_hit_ratio"] = None if cache is None else ratio(
        cache["hits"], cache["hits"] + cache["misses"])
    service = "core.service.run"
    metrics["core.service.requests"] = per_op(
        service, counts["core.service.requests"])
    metrics["core.service.steps"] = per_op(service,
                                           counts["core.service.steps"])
    metrics["trace.wall_s"] = tr["wall_s"] / n
    metrics["trace.ops"] = n
    metrics["trace.overhead_frac"] = (sum(normalized_op_s(traced))
                                      / sum(normalized_op_s(base)) - 1.0)
    return metrics


# -- one workload -------------------------------------------------------------


def _failed_ops(child: dict) -> set:
    """Indexes of ops that raised, failed a check or missed a digest."""
    return set(child["mismatches"]) | {
        i for i, d in enumerate(child["digests"]) if d is None}


def measure(workload, seed, seconds, trace, ops=None, trace_out=None) -> dict:
    """One workload end to end; returns the result doc with its detail."""
    if not trace:
        setup = setup_times(workload, seed)
        child = run_child(workload, seed, seconds=seconds, ops=ops)
        metrics = end_to_end_metrics(child, setup)
        attempted = child["attempted"]
        failed_ops = _failed_ops(child)
        detail = {"setup_runs_s": setup,
                  "samples": len(normalized_op_s(child)),
                  "child": child}
    else:
        base_seconds = None if ops is not None else seconds / 2
        base = run_child(workload, seed, seconds=base_seconds, ops=ops)
        # The traced replay runs exactly the ops the untraced run reached;
        # ``seconds`` only sizes its timeout.
        traced = run_child(workload, seed, trace=1, ops=base["attempted"],
                           seconds=base_seconds, trace_out=trace_out)
        metrics = per_layer_metrics(base, traced)
        attempted = traced["attempted"]
        failed_ops = _failed_ops(base) | _failed_ops(traced) | {
            i for i, (a, b) in enumerate(zip(base["digests"],
                                             traced["digests"])) if a != b}
        tr = traced["trace"]
        detail = {
            "base": base, "traced": traced,
            "conservation_residual_s":
                sum(tr["self_s"].values()) - tr["wall_s"],
        }
    failed = len(failed_ops)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def _result_line(result: dict, names_units) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in names_units},
    }


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def _print_table(workload: str, line: dict) -> None:
    print(f"# {workload}: attempted {line['attempted']}, "
          f"failed {line['failed']}, correct {line['correct']}")
    for name, m in line["metrics"].items():
        print(f"{workload:15s} {name:42s} {_fmt(m['value']):>12s} "
              f"{m['unit']}")


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)


# -- compare ------------------------------------------------------------------


def _load_runs(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        with open(file) as f:
            runs.append(json.load(f))
    if not runs:
        raise BenchError(f"{path}: no result files")
    return runs


def _quartiles(values) -> str:
    if len(values) < 2:
        return ""
    q = statistics.quantiles(values, n=4)
    return f"[{q[0]:.6g}, {q[2]:.6g}]"


def compare(base_path: Path, new_path: Path) -> int:
    """Print each metric's change against its bound; 1 on a regression.

    Either side is a result file or a directory of them.  A side with
    several runs of a workload is summarized by its median and
    quartiles; with several runs on both sides, the new side's wins over
    run pairs (in file order) are printed too.
    """
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    sides = (_load_runs(base_path), _load_runs(new_path))
    workloads = sorted(set.intersection(
        *({w for r in runs for w in r["workloads"]} for runs in sides)))
    if not workloads:
        raise BenchError("the two sides share no workload")
    violations = 0
    print(f"{'workload':15s} {'metric':42s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s}  verdict")
    for workload in workloads:
        base, new = ([r["workloads"][workload] for r in runs
                      if workload in r["workloads"]] for runs in sides)
        fail = [statistics.median(r["failed"] / r["attempted"] for r in side)
                for side in (base, new)]
        verdict = "ok" if fail[1] <= fail[0] else "REGRESSED"
        violations += verdict != "ok"
        print(f"{workload:15s} {'ops_failed_frac':42s} {fail[0]:12.4g} "
              f"{fail[1]:12.4g} {'':>8s}  {verdict}")
        for name in base[0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in base]
            b = [r["metrics"].get(name, {}).get("value") for r in new]
            if None in a or None in b:
                print(f"{workload:15s} {name:42s} {'null':>12s}")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            line = (f"{workload:15s} {name:42s} {ma:12.6g} {mb:12.6g} "
                    f"{change:+8.1%}")
            if name not in bounds:
                print(f"{line}  info")
                continue
            lower = bounds[name]["better"] == "lower"
            worse = change if lower else -change
            verdict = "ok" if worse <= bounds[name]["bound"] else "REGRESSED"
            violations += verdict != "ok"
            extra = f"  bound {bounds[name]['bound']:.0%}"
            if len(a) > 1 and len(b) > 1:
                pairs = list(zip(a, b))
                wins = sum((y < x) if lower else (y > x) for x, y in pairs)
                extra += (f"  wins {wins}/{len(pairs)}  quartiles "
                          f"{_quartiles(a)} -> {_quartiles(b)}")
            print(f"{line}  {verdict}{extra}")
    return 1 if violations else 0


# -- expected digests ---------------------------------------------------------


def update_expected(seed: int, only) -> None:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import EXPECTED_OPS, WORKLOADS
    path = EXPECTED_DIR / f"seed{seed}.json"
    doc = {"seed": seed, "digests": {}}
    if path.exists():
        with open(path) as f:
            doc = json.load(f)
    for workload in ([only] if only else WORKLOADS):
        child = run_child(workload, seed, ops=EXPECTED_OPS[workload])
        if child["errors"]:
            raise BenchError(f"{workload}: {child['errors'][0]}")
        doc["digests"][workload] = child["digests"]
        print(f"{workload}: {len(child['digests'])} digests")
    _write(path, doc)


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        try:
            return compare(Path(argv[1]), Path(argv[2]))
        except (OSError, ValueError, KeyError, BenchError) as exc:
            print(f"host-bench: compare: {exc}", file=sys.stderr)
            return 2

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops instead of "
                             "--seconds")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's host spans as "
                             "Chrome-trace JSON")
    parser.add_argument("--out", default=None,
                        help="result file (default under .bench_build/)")
    parser.add_argument("--update-expected", action="store_true",
                        help="regenerate expected/seed<SEED>.json")
    parser.add_argument("--role", choices=("main", "child", "setup"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")
    if args.role == "child":
        return child_main(args)
    if args.role == "setup":
        return setup_main(args)
    if args.update_expected:
        update_expected(args.seed,
                        None if args.workload == "all" else args.workload)
        return 0

    group = "per_layer" if args.trace else "end_to_end"
    names_units = [(m["name"], m["unit"]) for m in spec[group]]
    selected = names if args.workload == "all" else [args.workload]
    doc = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "ops": args.ops, "workloads": {}}
    lines = {}
    for workload in selected:
        trace_out = args.trace_out
        if trace_out and len(selected) > 1:
            stem, ext = os.path.splitext(trace_out)
            trace_out = f"{stem}-{workload}{ext or '.json'}"
        result = measure(workload, args.seed, args.seconds, args.trace,
                         ops=args.ops, trace_out=trace_out)
        lines[workload] = _result_line(result, names_units)
        _print_table(workload, lines[workload])
        if "samples" in result["detail"]:
            print(f"# {workload}: {result['detail']['samples']} latency "
                  f"samples")
        doc["workloads"][workload] = dict(lines[workload],
                                          detail=result["detail"])
    out = Path(args.out) if args.out else (
        BUILD / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    _write(out, doc)
    print(f"# results: {out}")
    if len(selected) == 1:
        final = lines[selected[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{k}": v for w, l in lines.items()
                        for k, v in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    # SIGTERM raises SystemExit, so ``subprocess.run`` kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"host-bench: {exc}", file=sys.stderr)
        sys.exit(1)
