#!/usr/bin/env bash
# Determinism tripwire for the service scheduler: serve the golden
# two-tier workload (with seeded fault injection) twice in separate
# interpreter processes and require byte-identical reports.  Catches any
# nondeterminism that leaks into admission decisions, queue order,
# retry timing, or the underlying simulator (hash-order iteration,
# wall-clock reads, unseeded RNG...).
#
# The same pairing is applied to the *unified observability trace*: the
# merged service+hardware Perfetto export must also be byte-identical —
# the tracer stamps only sim-clock times and the exporter's pid/tid
# mapping and event order are sorted, so any diff means wall-clock or
# hash-order leakage into the observability layer.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

snapshot() {
    python -c 'from repro.eval.service_eval import service_golden_snapshot
print(service_golden_snapshot(seed=42))'
}

trace() {
    python -c 'from repro.eval.service_eval import service_golden_trace
print(service_golden_trace(seed=42))'
}

profile() {
    python -c 'from repro.eval.profiling import golden_profile_json
print(golden_profile_json(seed=42))'
}

out1=$(mktemp)
out2=$(mktemp)
trace1=$(mktemp)
trace2=$(mktemp)
prof1=$(mktemp)
prof2=$(mktemp)
trap 'rm -f "$out1" "$out2" "$trace1" "$trace2" "$prof1" "$prof2"' EXIT

snapshot > "$out1"
snapshot > "$out2"

if ! diff -u "$out1" "$out2"; then
    echo "FAIL: consecutive golden service runs differ" >&2
    exit 1
fi
echo "OK: golden service report is byte-identical across runs" \
     "($(wc -l < "$out1") lines)"

trace > "$trace1"
trace > "$trace2"

if ! cmp -s "$trace1" "$trace2"; then
    echo "FAIL: consecutive golden trace exports differ" >&2
    exit 1
fi
echo "OK: golden unified trace is byte-identical across runs" \
     "($(wc -c < "$trace1") bytes)"

# The profile report (repro.profile/v1) carries no timestamps and no
# environment capture, so the full attribution — busy/idle seconds,
# idle-cause classification, roofline numerators, per-event energy,
# flamegraph weights — must also serialize to identical bytes.
profile > "$prof1"
profile > "$prof2"

if ! cmp -s "$prof1" "$prof2"; then
    echo "FAIL: consecutive golden profile reports differ" >&2
    exit 1
fi
python -m repro.cli validate "$prof1"
echo "OK: golden profile report is byte-identical across runs" \
     "($(wc -c < "$prof1") bytes)"

# The fleet SLO report (repro.fleet/v1) rolls per-device monitors into
# merged quantile sketches, compliance counts, and burn-rate incident
# timelines — all sim-clock-stamped, so it too must be a pure function
# of the seed.
fleet() {
    python -c 'from repro.eval.fleet import fleet_golden_json
print(fleet_golden_json(seed=42))'
}

fleet1=$(mktemp)
fleet2=$(mktemp)
trap 'rm -f "$out1" "$out2" "$trace1" "$trace2" "$prof1" "$prof2" \
     "$fleet1" "$fleet2"' EXIT

fleet > "$fleet1"
fleet > "$fleet2"

if ! cmp -s "$fleet1" "$fleet2"; then
    echo "FAIL: consecutive fleet SLO reports differ" >&2
    exit 1
fi
python -m repro.cli validate "$fleet1"
echo "OK: fleet SLO report is byte-identical across runs" \
     "($(wc -c < "$fleet1") bytes)"

# The prefill memo and the shared chunk-graph registry are process-wide,
# so a warm process must print what a cold one prints: build the fleet
# report twice in one interpreter, the second time over the memo the
# first one filled, and compare both with the fresh-process report.
warm1=$(mktemp)
warm2=$(mktemp)
trap 'rm -f "$out1" "$out2" "$trace1" "$trace2" "$prof1" "$prof2" \
     "$fleet1" "$fleet2" "$warm1" "$warm2"' EXIT

python -c 'import sys
from repro.core.pipeline import prefill_memo_stats, reset_prefill_memo_stats
from repro.eval.fleet import fleet_golden_json
misses = []
for path in sys.argv[1:]:
    reset_prefill_memo_stats()
    with open(path, "w") as f:
        print(fleet_golden_json(seed=42), file=f)
    misses.append(prefill_memo_stats()["misses"])
assert misses[1] < misses[0], f"second run was not warm: misses {misses}"
' "$warm1" "$warm2"
for warm in "$warm1" "$warm2"; do
    if ! cmp -s "$fleet1" "$warm"; then
        echo "FAIL: fleet report from a warm prefill memo differs from" \
             "a fresh process" >&2
        exit 1
    fi
done
echo "OK: fleet SLO report is byte-identical with a cold and a warm" \
     "prefill memo"

# The step loop proper is deterministic too: the batching snapshot
# (per-request timings + per-step batch digests + goodput) at two knob
# settings must be byte-identical across independent processes.  And
# observing it is a no-op: with a StepLogger attached (every step and
# decision emitted) the snapshot must not change a byte.
batching() {
    python -c "from repro.eval.service_eval import service_batching_golden_snapshot
from repro.obs import StepLogger
log = StepLogger() if $2 else None
print(service_batching_golden_snapshot(seed=42, prefill_priority=$1,
                                       steplog=log))"
}

for p in 0.0 1.0; do
    b1=$(mktemp)
    b2=$(mktemp)
    b3=$(mktemp)
    batching "$p" False > "$b1"
    batching "$p" False > "$b2"
    if ! cmp -s "$b1" "$b2"; then
        echo "FAIL: consecutive step-loop runs differ" \
             "(prefill_priority=$p)" >&2
        rm -f "$b1" "$b2" "$b3"
        exit 1
    fi
    echo "OK: step-loop batching snapshot is byte-identical across" \
         "runs (prefill_priority=$p, $(wc -l < "$b1") lines)"
    batching "$p" True > "$b3"
    if ! diff -u "$b1" "$b3"; then
        echo "FAIL: attaching a StepLogger changed the step-loop" \
             "snapshot (prefill_priority=$p; observation must be a" \
             "no-op)" >&2
        rm -f "$b1" "$b2" "$b3"
        exit 1
    fi
    echo "OK: step-loop batching snapshot is unchanged with step" \
         "logging attached (prefill_priority=$p)"
    rm -f "$b1" "$b2" "$b3"
done

# The scheduler step log (repro.steps/v1) — queue snapshots, typed
# decisions, embedded breakdowns — is itself a golden artifact: two
# independent evaluations must serialize to identical bytes, and
# `llmnpu validate` must accept it.
steplog() {
    python -c 'from repro.eval.service_eval import golden_steplog_json
print(golden_steplog_json(seed=42, batched=True))'
}

steps1=$(mktemp)
steps2=$(mktemp)
noop1=$(mktemp)
trap 'rm -f "$out1" "$out2" "$trace1" "$trace2" "$prof1" "$prof2" \
     "$fleet1" "$fleet2" "$warm1" "$warm2" \
     "$steps1" "$steps2" "$noop1"' EXIT

steplog > "$steps1"
steplog > "$steps2"

if ! cmp -s "$steps1" "$steps2"; then
    echo "FAIL: consecutive golden step logs differ" >&2
    exit 1
fi
python -m repro.cli validate "$steps1"
echo "OK: golden step log is byte-identical across runs" \
     "($(wc -c < "$steps1") bytes)"

# Observation is a no-op: the golden snapshot with a StepLogger
# attached (decision emission enabled) must equal the unobserved one
# byte-for-byte.
observed_snapshot() {
    python -c 'from repro.eval.service_eval import service_golden_snapshot
from repro.obs import StepLogger
print(service_golden_snapshot(seed=42, steplog=StepLogger()))'
}

observed_snapshot > "$noop1"
if ! diff -u "$out1" "$noop1"; then
    echo "FAIL: attaching a StepLogger changed the golden snapshot" \
         "(observation must be a no-op)" >&2
    exit 1
fi
echo "OK: golden snapshot is unchanged with step logging attached" \
     "(observation is a no-op)"

# The parallel fleet fan-out is pure plumbing: fanning the per-device
# pipelines across a worker pool (and any submission order of the same
# specs) must reproduce the sequential report byte-for-byte, on both
# the 3-device golden and a 4-device fleet.
par1=$(mktemp)
par2=$(mktemp)
trap 'rm -f "$out1" "$out2" "$trace1" "$trace2" "$prof1" "$prof2" \
     "$fleet1" "$fleet2" "$warm1" "$warm2" \
     "$steps1" "$steps2" "$noop1" "$par1" "$par2"' EXIT

python -c 'from repro.eval.fleet import fleet_golden_json
print(fleet_golden_json(seed=42, workers=4))' > "$par1"
if ! cmp -s "$fleet1" "$par1"; then
    echo "FAIL: parallel fleet report (workers=4) differs from" \
         "sequential" >&2
    exit 1
fi

four_device_fleet() {
    python -c "import json
from repro.eval.fleet import default_fleet, fleet_report
specs = default_fleet(n_devices=4, seed=42)
print(json.dumps(fleet_report(specs=specs, seed=42, workers=$1)))"
}

four_device_fleet 1 > "$par2"
four_device_fleet 3 | cmp -s "$par2" - || {
    echo "FAIL: 4-device fleet report changes with worker count" >&2
    exit 1
}
echo "OK: parallel fleet fan-out is byte-identical to sequential" \
     "(3-device golden workers=4, 4-device fleet workers=3)"

# The critical-path document (repro.critpath/v1) is derived purely
# from the golden workload's simulated timelines plus the service-side
# queueing facts, so it too must be a pure function of the seed — and
# `llmnpu validate` enforces per-path conservation (sum of waits +
# durations == e2e within 1e-9 s) on it.
critpath() {
    python -c 'from repro.eval.whatif_eval import golden_critpath_json
print(golden_critpath_json(seed=42))'
}

cp1=$(mktemp)
cp2=$(mktemp)
trap 'rm -f "$out1" "$out2" "$trace1" "$trace2" "$prof1" "$prof2" \
     "$fleet1" "$fleet2" "$warm1" "$warm2" \
     "$steps1" "$steps2" "$noop1" "$par1" "$par2" "$cp1" "$cp2"' EXIT

critpath > "$cp1"
critpath > "$cp2"

if ! cmp -s "$cp1" "$cp2"; then
    echo "FAIL: consecutive golden critical-path documents differ" >&2
    exit 1
fi
python -m repro.cli validate "$cp1"
echo "OK: golden critical-path document is byte-identical across runs" \
     "($(wc -c < "$cp1") bytes)"

# The what-if estimator's predictions (from Simulator) must agree with
# the independent ReferenceSimulator: predicted TTFT/e2e/ITL for
# representative perturbations of the reference engine run match a
# re-simulation on the reference loop within 1e-9 s.
python -c '
from repro.obs import (WHATIF_TOL_S, OperatorSpeedup, ProcessorReassign,
                       capture_engine_run, predict, resimulate)
from repro.core.engine import LlmNpuEngine

engine = LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")
run = capture_engine_run(engine, 512, output_tokens=4)
for perts in ([OperatorSpeedup("sg1", 2.0)],
              [ProcessorReassign("sg2.float", "gpu")],
              [OperatorSpeedup("decode", 1.5),
               ProcessorReassign("sg4.float", "gpu")]):
    pred = predict(run, perts)
    actual = resimulate(run, perts)
    for key, a, b in (("ttft", pred.predicted.ttft_s, actual.ttft_s),
                      ("e2e", pred.predicted.e2e_s, actual.e2e_s),
                      ("itl", pred.predicted.itl_s, actual.itl_s)):
        err = abs(a - b)
        assert err <= WHATIF_TOL_S, (key, perts, err)
print("OK: what-if predictions match the reference simulator within",
      WHATIF_TOL_S, "s on 3 perturbation sets")
'

# The simulator loop must make exactly the choices of the kept-verbatim
# reference implementation on the self-benchmark graphs, under every
# scheduling policy (the speedup suite's correctness precondition).
# The real prefill DAG runs as the engine runs it, with the dependents
# lowering hands the simulator as indices, and again as a plain list.
python -c '
from repro.core.scheduler import POLICIES, get_policy
from repro.eval.simbench import (
    SIM_SCENARIOS,
    prefill_task_graph,
    synthetic_task_graph,
)
from repro.hw.sim import ReferenceSimulator, Simulator

for scenario in SIM_SCENARIOS:
    procs, tasks = synthetic_task_graph(scenario)
    for name in sorted(POLICIES):
        fast = Simulator(procs).run(tasks, get_policy(name))
        ref = ReferenceSimulator(procs).run(tasks, get_policy(name))
        assert fast.events == ref.events, (scenario.name, name)
procs, tasks = prefill_task_graph()
assert tasks.dependents is not None
for name in sorted(POLICIES):
    ref = ReferenceSimulator(procs).run(list(tasks), get_policy(name))
    linked = Simulator(procs).run(tasks, get_policy(name),
                                  tasks.dependents)
    plain = Simulator(procs).run(list(tasks), get_policy(name))
    assert linked.events == ref.events, ("prefill", name)
    assert plain.events == ref.events, ("prefill", name)
print("OK: simulator matches the reference on",
      len(SIM_SCENARIOS), "benchmark graph shapes and the",
      len(tasks), "task prefill DAG x", len(POLICIES), "policies")
'

# The run-to-run diff layer (repro.diff/v1): diffing a run against
# itself must come back identical; the injected-slowdown golden pair
# must be a pure function of its arguments, rank exactly the injected
# operator as the top contributor, and telescope its per-segment deltas
# to the observed e2e delta (`llmnpu validate` enforces the residual
# bound per aligned request).
diffpair() {
    python -c 'from repro.eval.diff_eval import golden_diff_json
print(golden_diff_json())'
}

diff1=$(mktemp)
diff2=$(mktemp)
trap 'rm -f "$out1" "$out2" "$trace1" "$trace2" "$prof1" "$prof2" \
     "$fleet1" "$fleet2" "$warm1" "$warm2" \
     "$steps1" "$steps2" "$noop1" "$par1" "$par2" "$cp1" "$cp2" \
     "$diff1" "$diff2"' EXIT

diffpair > "$diff1"
diffpair > "$diff2"

if ! cmp -s "$diff1" "$diff2"; then
    echo "FAIL: consecutive injected-slowdown diffs differ" >&2
    exit 1
fi
python -m repro.cli validate "$diff1"
python -c '
import json, sys
from repro.eval.diff_eval import INJECTED_TAG, injected_slowdown_docs
from repro.obs import diff_docs

doc = json.load(open(sys.argv[1]))
top = doc["top_contributors"][0]
assert top["tag"] == INJECTED_TAG, \
    f"top contributor is {top['\''tag'\'']!r}, not the injected {INJECTED_TAG!r}"
assert doc["e2e"]["delta_s"] > 0.0
worst = max(abs(r["residual_s"]) for r in doc["requests"])
assert worst <= doc["tol_s"], worst
base_doc, _ = injected_slowdown_docs()
self_doc = diff_docs(base_doc, base_doc)
assert self_doc["identical"], "self-diff is not identical"
assert self_doc["e2e"]["delta_s"] == 0.0
print(f"OK: injected slowdown attributes to {INJECTED_TAG!r} "
      f"(+{top['\''delta_s'\'']*1e3:.1f} ms, worst residual {worst:.3e} s) "
      f"and the self-diff is empty")
' "$diff1"
echo "OK: injected-slowdown diff is byte-identical across runs" \
     "($(wc -c < "$diff1") bytes)"
