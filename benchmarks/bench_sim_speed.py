"""Self-benchmark of the simulation substrate (not a paper figure).

Measures the reproduction's own machinery: sim-core events/second
under ``FifoPolicy`` (``Simulator``'s key-heap loop vs the kept-verbatim
``ReferenceSimulator``, with trace equality re-verified in the same
run) plus an ungated row under the engine's ``ooo`` policy on a real
prefill DAG, quant-hot-path
tokens/second, and fleet-harness devices/second.  The gated artifact
metric is the deterministic ``speedup floor x`` contract; raw rates are
informational (machine-dependent).  CI's perf-smoke job runs this file
under a wall-clock budget and bench-compares the artifact against the
committed golden.
"""

import os

from conftest import run_once

from repro.eval import archive, results_dir
from repro.eval.simbench import (
    SIM_SPEEDUP_FLOOR,
    min_gated_sim_speedup,
    sim_speed_report,
)
from repro.obs import make_artifact


def test_sim_speed(benchmark):
    sim, quant, fleet = run_once(benchmark, sim_speed_report)
    for table, filename in ((sim, "sim_speed_core.txt"),
                            (quant, "sim_speed_quant.txt"),
                            (fleet, "sim_speed_fleet.txt")):
        print()
        print(table.render())
        print(f"[archived: {archive(table, filename)}]")
    artifact = make_artifact("sim_speed", [sim, quant, fleet])
    json_path = artifact.save(
        os.path.join(results_dir(), "json", "BENCH_sim_speed.json")
    )
    print(f"[artifact: {json_path}]")

    # ACCEPTANCE: the simulator loop must beat the reference by
    # the contract floor on every gated scenario, with identical traces
    # (trace equality is asserted inside sim_core_speed itself).
    assert min_gated_sim_speedup(sim) >= SIM_SPEEDUP_FLOOR

    # The floor cells are what bench-compare gates: exactly the contract
    # value whenever the assertion above holds.
    floors = [cell for cell in sim.column("speedup floor x")
              if cell is not None]
    assert floors and all(f == SIM_SPEEDUP_FLOOR for f in floors)

    # Deterministic scenario facts (byte-stable against the golden).
    assert sim.column("tasks") == [2000, 2000, 1000, 1776]
    assert quant.column("outlier cols")[0] == quant.column("outlier cols")[1]
    assert all(rate > 0 for rate in quant.column("ktok rate"))
    assert fleet.column("total steps")[0] > 0
