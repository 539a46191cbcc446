"""Device presets: the two phones of the paper's evaluation (§4.1).

* **Redmi K70 Pro** — Snapdragon 8 Gen 3, 24 GB RAM (the paper's primary
  device and the source of the Table 3 micro-benchmarks the MatMul
  profiles below are fitted against — see ``scripts/fit_latency.py``).
* **Redmi K60 Pro** — Snapdragon 8 Gen 2, 16 GB RAM (the rootable device
  used for the energy measurements), modelled as a uniformly slightly
  slower 8 Gen 3.

Fit quality against Table 3: NPU INT8 within 19%, CPU INT8 within 20%,
GPU FP16 within 21%, NPU FP16 within 8% across all six published shapes —
see ``tests/hw/test_latency.py (TestTable3Calibration)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError
from repro.hw.energy import EnergyModel
from repro.hw.memory import GiB, SocMemory
from repro.hw.npu_graph import NpuGraphCostModel
from repro.hw.processor import DType, MatMulProfile, ProcKind, ProcessorSpec
from repro.keys import ContentKeyed


@dataclass(frozen=True)
class SocSpec(ContentKeyed):
    """A complete device: processors, memory, energy, NPU graph costs."""

    name: str
    soc: str
    processors: Dict[str, ProcessorSpec]
    dram_bytes: int
    npu_region_bytes: int = 4 * GiB
    platform_power_w: float = 0.8
    graph_cost: NpuGraphCostModel = field(default_factory=NpuGraphCostModel)

    def __post_init__(self) -> None:
        for required in ("cpu", "gpu", "npu"):
            if required not in self.processors:
                raise ConfigError(f"{self.name}: missing processor {required!r}")

    @property
    def cpu(self) -> ProcessorSpec:
        return self.processors["cpu"]

    @property
    def gpu(self) -> ProcessorSpec:
        return self.processors["gpu"]

    @property
    def npu(self) -> ProcessorSpec:
        return self.processors["npu"]

    def energy_model(self) -> EnergyModel:
        return EnergyModel(self.processors, self.platform_power_w)

    def memory(self) -> SocMemory:
        return SocMemory(self.dram_bytes, self.npu_region_bytes)

    def scaled(self, name: str, soc: str, cpu_gpu: float,
               npu: float, dram_bytes: int) -> "SocSpec":
        """Derive a uniformly slower/faster sibling device."""
        if cpu_gpu <= 0 or npu <= 0:
            raise ConfigError("scale factors must be positive")
        procs = {}
        for key, spec in self.processors.items():
            factor = npu if spec.kind is ProcKind.NPU else cpu_gpu
            matmul = {
                dtype: dataclasses.replace(
                    profile, peak_ops=profile.peak_ops * factor,
                    mem_bandwidth=profile.mem_bandwidth * factor,
                )
                for dtype, profile in spec.matmul.items()
            }
            procs[key] = dataclasses.replace(
                spec, matmul=matmul,
                vector_ops_per_s=spec.vector_ops_per_s * factor,
            )
        return dataclasses.replace(
            self, name=name, soc=soc, processors=procs, dram_bytes=dram_bytes
        )


def _snapdragon_8gen3_processors() -> Dict[str, ProcessorSpec]:
    """Fitted against Table 3 (Redmi K70 Pro). See scripts/fit_latency.py."""
    cpu = ProcessorSpec(
        name="Kryo CPU (1+5+2)",
        kind=ProcKind.CPU,
        matmul={
            # Fitted: additive compute+memory, saturates by ~58 rows.
            # min_util 0.3: the m=1 GEMV decode path switches to
            # memory-tuned kernels rather than following the batched
            # utilization law (matches Table 5's ~80 ms/token decode).
            DType.INT8: MatMulProfile(
                peak_ops=4.25e11, m_sat=58.0, m_exp=1.154,
                overhead_s=2.54e-3, mem_bandwidth=2.95e10,
                combine="sum", min_util=0.3,
            ),
            # FP16 NEON path used for attention and float fallbacks
            # (8 big-core armv8.2 fp16: ~380 GFLOPS peak, ~60% achievable
            # on the batched attention GEMMs).
            DType.FP16: MatMulProfile(
                peak_ops=2.2e11, m_sat=64.0, m_exp=0.7,
                overhead_s=3.0e-4, mem_bandwidth=2.95e10,
                combine="sum", min_util=0.2,
            ),
            DType.FP32: MatMulProfile(
                peak_ops=6.0e10, m_sat=32.0, m_exp=0.7,
                overhead_s=3.0e-4, mem_bandwidth=2.95e10,
                combine="sum", min_util=0.2,
            ),
        },
        vector_ops_per_s=2.5e10,
        dispatch_overhead_s=2.0e-5,
        active_power_w=6.5,
        idle_power_w=0.25,
        supports_per_group_matmul=True,
        freq_mhz=3300,
    )
    gpu = ProcessorSpec(
        name="Adreno 750",
        kind=ProcKind.GPU,
        matmul={
            # Fitted: additive, near-linear M gain up to ~257 rows.
            DType.FP16: MatMulProfile(
                peak_ops=9.15e11, m_sat=257.0, m_exp=0.453,
                overhead_s=4.1e-4, mem_bandwidth=1.02e11,
                combine="sum", min_util=0.1,
            ),
            DType.INT8: MatMulProfile(
                peak_ops=1.4e12, m_sat=257.0, m_exp=0.453,
                overhead_s=4.1e-4, mem_bandwidth=1.02e11,
                combine="sum", min_util=0.1,
            ),
            DType.FP32: MatMulProfile(
                peak_ops=4.5e11, m_sat=257.0, m_exp=0.453,
                overhead_s=4.1e-4, mem_bandwidth=1.02e11,
                combine="sum", min_util=0.1,
            ),
        },
        vector_ops_per_s=8.0e10,
        dispatch_overhead_s=1.5e-4,
        active_power_w=4.5,
        idle_power_w=0.15,
        supports_per_group_matmul=True,
        freq_mhz=903,
    )
    npu = ProcessorSpec(
        name="Hexagon NPU",
        kind=ProcKind.NPU,
        matmul={
            # Fitted: roofline; compute saturates early but dispatch and
            # weight streaming keep per-token cost falling until ~256 rows
            # (Fig. 8).  This fit also reproduces the paper's whole-chunk
            # measurement (§3.4: ~315 ms of NPU work per 256-token chunk
            # of Qwen1.5-1.8B, about 2x the CPU-side float work).
            DType.INT8: MatMulProfile(
                peak_ops=2.1675e12, m_sat=25.6, m_exp=1.0,
                overhead_s=5.67e-4, mem_bandwidth=1.45e10,
                combine="max", min_util=0.02,
            ),
            # FP16 on the NPU is catastrophically slow (Table 3: up to
            # 700x slower than INT8) — the reason float ops leave the NPU.
            DType.FP16: MatMulProfile(
                peak_ops=3.17e9, m_sat=83.0, m_exp=1.194,
                overhead_s=2.0e-2, mem_bandwidth=3.0e10,
                combine="max", min_util=0.05,
            ),
        },
        vector_ops_per_s=6.0e9,  # weak float vector path
        dispatch_overhead_s=2.0e-4,
        active_power_w=1.2,
        idle_power_w=0.05,
        supports_per_group_matmul=False,  # Table 2: no mobile NPU has it
        freq_mhz=750,
    )
    return {"cpu": cpu, "gpu": gpu, "npu": npu}


REDMI_K70_PRO = SocSpec(
    name="Redmi K70 Pro",
    soc="Snapdragon 8 Gen 3",
    processors=_snapdragon_8gen3_processors(),
    dram_bytes=24 * GiB,
)

REDMI_K60_PRO = REDMI_K70_PRO.scaled(
    name="Redmi K60 Pro",
    soc="Snapdragon 8 Gen 2",
    cpu_gpu=0.85,
    npu=0.80,
    dram_bytes=16 * GiB,
)

#: Registry of the paper's evaluation devices.
DEVICES: Dict[str, SocSpec] = {
    REDMI_K70_PRO.name: REDMI_K70_PRO,
    REDMI_K60_PRO.name: REDMI_K60_PRO,
}


def with_mixed_precision_npu(base: SocSpec, fp16_peak_ops: float = 4e12,
                             name_suffix: str = " (FP16 NPU concept)"
                             ) -> SocSpec:
    """A hypothetical device whose NPU has first-class FP16 units.

    §5's third hardware-design implication: mixed-precision operands in
    the computing units.  The INT8 path is unchanged; the FP16 path gets
    GPU-class throughput, modest dispatch overhead and a capable vector
    unit — enough to host attention and the other float operators.
    """
    if fp16_peak_ops <= 0:
        raise ConfigError("fp16_peak_ops must be positive")
    npu = base.npu
    matmul = dict(npu.matmul)
    matmul[DType.FP16] = MatMulProfile(
        peak_ops=fp16_peak_ops, m_sat=64.0, m_exp=0.7,
        overhead_s=3.0e-4, mem_bandwidth=matmul[DType.INT8].mem_bandwidth,
        combine="max", min_util=0.1,
    )
    new_npu = dataclasses.replace(
        npu, matmul=matmul,
        vector_ops_per_s=max(npu.vector_ops_per_s, 4e10),
        active_power_w=npu.active_power_w * 1.4,
    )
    processors = dict(base.processors)
    processors["npu"] = new_npu
    return dataclasses.replace(
        base, name=base.name + name_suffix, processors=processors
    )


def get_device(name: str) -> SocSpec:
    """Look up a device preset by (case-insensitive) name."""
    for key, spec in DEVICES.items():
        if key.lower() == name.lower():
            return spec
    raise ConfigError(f"unknown device {name!r}; available: {sorted(DEVICES)}")
