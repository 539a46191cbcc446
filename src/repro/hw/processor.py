"""Processor specifications for the mobile SoC simulator.

Each processor (CPU cluster, GPU, NPU) carries analytical cost-model
parameters for matrix multiplication at each data type, vector-op
throughput for the float operators (norm/softmax/attention arithmetic),
dispatch overheads, and power draw.  The numbers are fitted against the
paper's own published measurements (Table 3 micro-benchmarks; §2.2 NPU
characteristics) by ``scripts/fit_latency.py``; see :mod:`repro.hw.soc`
for the fitted device presets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.keys import ContentKeyed


class ProcKind(enum.Enum):
    """The three heterogeneous processors of a mobile SoC."""

    CPU = "cpu"
    GPU = "gpu"
    NPU = "npu"


class DType(enum.Enum):
    """Numeric formats the cost model distinguishes."""

    INT8 = "int8"
    FP16 = "fp16"
    FP32 = "fp32"

    @property
    def bytes(self) -> int:
        return {"int8": 1, "fp16": 2, "fp32": 4}[self.value]


@dataclass(frozen=True)
class MatMulProfile:
    """Analytical MatMul cost parameters for one (processor, dtype) pair.

    Latency of an ``(M, K) x (K, N)`` product is modelled as a roofline
    with a row-utilization term::

        util    = min(1, (M / m_sat) ** m_exp)
        compute = 2*M*K*N / (peak_ops * util)
        memory  = weight_bytes / mem_bandwidth
        latency = overhead_s + combine(compute, memory)

    ``combine`` is ``max`` for accelerators that overlap weight streaming
    with arithmetic (NPU) and ``sum`` for engines where they serialize
    (mobile CPU/GPU — this fits the paper's Table 3 points better).

    ``m_sat`` is the row count at which the engine saturates — for mobile
    NPUs this is what makes the paper's chunk length of 256 optimal
    (Fig. 8: per-token cost falls until ~256 rows, then flattens).
    """

    peak_ops: float
    m_sat: float = 1.0
    m_exp: float = 0.0
    overhead_s: float = 0.0
    mem_bandwidth: float = 34e9
    combine: str = "max"
    min_util: float = 0.0

    def __post_init__(self) -> None:
        if self.combine not in ("max", "sum"):
            raise ConfigError(f"combine must be 'max' or 'sum', got {self.combine!r}")
        if self.peak_ops <= 0 or self.mem_bandwidth <= 0:
            raise ConfigError("peak_ops and mem_bandwidth must be positive")
        if not 0.0 <= self.min_util <= 1.0:
            raise ConfigError("min_util must be in [0, 1]")

    def utilization(self, m: int) -> float:
        """Fraction of peak throughput achieved at ``m`` rows.

        ``min_util`` floors the curve for the GEMV regime (decode, m=1)
        where real kernels switch to memory-bound paths rather than
        degrading with the batched-matmul utilization law.
        """
        if m <= 0:
            raise ConfigError(f"matmul rows must be positive, got {m}")
        if self.m_exp == 0.0 or m >= self.m_sat:
            return 1.0
        return max(self.min_util, (m / self.m_sat) ** self.m_exp)

    def latency(self, m: int, k: int, n: int,
                weight_bytes: Optional[int] = None) -> float:
        """Seconds to run one MatMul of the given shape."""
        if m <= 0 or k <= 0 or n <= 0:
            raise ConfigError(f"invalid matmul shape ({m}, {k}, {n})")
        ops = 2.0 * m * k * n
        compute = ops / (self.peak_ops * self.utilization(m))
        if weight_bytes is None:
            weight_bytes = k * n  # int8 weights by default
        memory = weight_bytes / self.mem_bandwidth
        if self.combine == "max":
            return self.overhead_s + max(compute, memory)
        return self.overhead_s + compute + memory


@dataclass(frozen=True)
class ProcessorSpec(ContentKeyed):
    """One processor of the SoC.

    ``matmul`` maps :class:`DType` to a :class:`MatMulProfile`; missing
    dtypes mean the processor cannot run MatMuls in that format.
    ``vector_ops_per_s`` is the elementwise float throughput used for
    norms, softmax, activation functions and quantize/dequantize steps.
    ``supports_per_group_matmul`` is False for mobile NPUs (Table 2): a
    per-group MatMul must be decomposed into sub-MatMuls plus a float
    reduction (the Fig. 4 penalty), which :mod:`repro.hw.latency` charges.
    """

    name: str
    kind: ProcKind
    matmul: Dict[DType, MatMulProfile]
    vector_ops_per_s: float
    dispatch_overhead_s: float
    active_power_w: float
    idle_power_w: float
    supports_per_group_matmul: bool = True
    freq_mhz: float = 1000.0

    def __post_init__(self) -> None:
        if not self.matmul:
            raise ConfigError(f"{self.name}: needs at least one MatMul profile")
        if self.vector_ops_per_s <= 0:
            raise ConfigError(f"{self.name}: vector throughput must be positive")
        if self.active_power_w < self.idle_power_w:
            raise ConfigError(
                f"{self.name}: active power below idle power"
            )

    def supports(self, dtype: DType) -> bool:
        """Whether the processor has a MatMul path for this dtype."""
        return dtype in self.matmul

    def matmul_profile(self, dtype: DType) -> MatMulProfile:
        try:
            return self.matmul[dtype]
        except KeyError:
            raise ConfigError(
                f"{self.name} has no {dtype.value} MatMul path"
            ) from None

    def vector_latency(self, elements: int, ops_per_element: float = 1.0) -> float:
        """Seconds to stream an elementwise/reduction op over ``elements``."""
        if elements < 0:
            raise ConfigError(f"negative element count {elements}")
        return (self.dispatch_overhead_s
                + elements * ops_per_element / self.vector_ops_per_s)
