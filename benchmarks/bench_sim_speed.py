"""Self-benchmark of the simulation substrate (not a paper figure).

Measures the reproduction's own machinery: sim-core events/second
under ``FifoPolicy`` (``Simulator``'s key-heap loop vs the kept-verbatim
``ReferenceSimulator``, with trace equality re-verified in the same
run) plus a row under the engine's ``ooo`` policy on a real prefill
DAG with its own floor, quant-hot-path tokens/second, and
fleet-harness devices/second.  The gated artifact
metric is the deterministic ``speedup floor x`` contract; raw rates are
informational (machine-dependent), so a run writes its tables and
artifact under the git-ignored ``.bench_build/sim_speed/`` and leaves the
committed golden in ``benchmarks/results/`` as it is.  CI's perf-smoke
job runs this file under a wall-clock budget and bench-compares the
fresh artifact against that golden.
"""

import os

from conftest import run_once

from repro.eval.simbench import (
    SIM_SPEEDUP_FLOORS,
    sim_floor_misses,
    sim_speed_report,
)
from repro.obs import make_artifact, write_text

#: Where a run writes its wall-clock tables and artifact.
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".bench_build", "sim_speed")


def test_sim_speed(benchmark):
    sim, quant, fleet = run_once(benchmark, sim_speed_report)
    for table, filename in ((sim, "sim_speed_core.txt"),
                            (quant, "sim_speed_quant.txt"),
                            (fleet, "sim_speed_fleet.txt")):
        print()
        print(table.render())
        path = write_text(os.path.join(OUT_DIR, filename), table.render())
        print(f"[written: {path}]")
    artifact = make_artifact("sim_speed", [sim, quant, fleet])
    json_path = write_text(os.path.join(OUT_DIR, "BENCH_sim_speed.json"),
                           artifact.to_json())
    print(f"[artifact: {json_path}]")

    # ACCEPTANCE: the simulator loop must beat the reference by its
    # row's contract floor on every gated scenario, with identical traces
    # (trace equality is asserted inside sim_core_speed itself).
    assert not sim_floor_misses(sim)

    # The floor cells are what bench-compare gates: exactly each row's
    # contract value whenever the assertion above holds.
    floors = {row[0]: row[5] for row in sim.rows if row[5] is not None}
    assert floors == SIM_SPEEDUP_FLOORS

    # Deterministic scenario facts (byte-stable against the golden).
    assert sim.column("tasks") == [2000, 2000, 1000, 1776]
    assert quant.column("outlier cols")[0] == quant.column("outlier cols")[1]
    assert all(rate > 0 for rate in quant.column("ktok rate"))
    assert fleet.column("total steps")[0] > 0
