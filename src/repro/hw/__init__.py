"""Mobile SoC simulator.

Analytical latency/energy/memory models for the CPU, GPU and NPU of the
paper's evaluation devices, calibrated against the paper's own published
micro-benchmarks (Table 3, Figure 2), plus a discrete-event simulator that
executes heterogeneous task graphs under pluggable scheduling policies.
"""

from repro.hw.energy import EnergyBreakdown, EnergyModel
from repro.hw.latency import (
    MatMulShape,
    attention_latency,
    disk_read_latency,
    float_reduce_latency,
    matmul_latency,
    norm_latency,
    per_group_matmul_latency,
    quantize_latency,
    shadow_matmul_latency,
    sync_latency,
)
from repro.hw.memory import GiB, MiB, MemorySpace, SocMemory
from repro.hw.npu_graph import NpuGraphCostModel, graph_ops_for_model
from repro.hw.processor import DType, MatMulProfile, ProcKind, ProcessorSpec
from repro.hw.sim import (
    FaultInjector,
    FaultSpec,
    FifoPolicy,
    SchedulingPolicy,
    SimContext,
    Simulator,
    Task,
    critical_path_s,
)
from repro.hw.soc import (
    DEVICES,
    REDMI_K60_PRO,
    REDMI_K70_PRO,
    SocSpec,
    get_device,
    with_mixed_precision_npu,
)
from repro.hw.trace import Trace, TraceEvent

__all__ = [
    "DType",
    "ProcKind",
    "MatMulProfile",
    "ProcessorSpec",
    "MatMulShape",
    "matmul_latency",
    "per_group_matmul_latency",
    "attention_latency",
    "norm_latency",
    "quantize_latency",
    "shadow_matmul_latency",
    "float_reduce_latency",
    "sync_latency",
    "disk_read_latency",
    "EnergyModel",
    "EnergyBreakdown",
    "MemorySpace",
    "SocMemory",
    "GiB",
    "MiB",
    "NpuGraphCostModel",
    "graph_ops_for_model",
    "Simulator",
    "Task",
    "SchedulingPolicy",
    "FifoPolicy",
    "FaultSpec",
    "FaultInjector",
    "SimContext",
    "critical_path_s",
    "Trace",
    "TraceEvent",
    "SocSpec",
    "REDMI_K70_PRO",
    "REDMI_K60_PRO",
    "DEVICES",
    "get_device",
    "with_mixed_precision_npu",
]
