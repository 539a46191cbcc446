"""Operator-level latency models over the processor specifications.

This module answers "how long does operator X take on processor P" for
every operator kind the compute-graph layer emits, including the two
NPU-specific effects at the heart of the paper:

* **per-group MatMul decomposition** (§2.3, Fig. 4): mobile NPUs cannot run
  per-group quantized MatMuls directly; they split the MatMul into
  ``n_groups`` group-sized sub-MatMuls and reduce the partial results with
  float additions, costing 8–10× the per-tensor MatMul;
* **FP16 MatMul collapse** (Table 3): FP operations on the NPU run orders
  of magnitude slower than INT8.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from repro.errors import UnsupportedOperationError
from repro.hw.dma import DmaConfig, streamed_matmul_latency
from repro.hw.processor import DType, ProcessorSpec


@dataclass(frozen=True)
class MatMulShape:
    """Shape of an ``(m, k) @ (k, n)`` product."""

    m: int
    k: int
    n: int

    @property
    def ops(self) -> float:
        """Multiply-accumulate operation count (×2 for MAC pairs)."""
        return 2.0 * self.m * self.k * self.n

    def weight_bytes(self, dtype: DType) -> int:
        return self.k * self.n * dtype.bytes


def matmul_latency(proc: ProcessorSpec, shape: MatMulShape,
                   dtype: DType = DType.INT8,
                   dma: Optional[DmaConfig] = None) -> float:
    """Latency of one per-tensor MatMul on ``proc``.

    With ``dma`` set, weight streaming is modelled as an explicit
    double/quad-buffered tile pipeline (:mod:`repro.hw.dma`) instead of
    the profile's coarse ``combine`` rule.
    """
    if not proc.supports(dtype):
        raise UnsupportedOperationError(
            f"{proc.name} has no {dtype.value} MatMul path"
        )
    profile = proc.matmul_profile(dtype)
    if dma is not None:
        return streamed_matmul_latency(profile, shape.m, shape.k, shape.n,
                                       shape.weight_bytes(dtype), dma)
    return profile.latency(shape.m, shape.k, shape.n,
                           shape.weight_bytes(dtype))


#: Per-node overhead inside an already-dispatched NPU graph (tensor setup,
#: synchronizing the sub-MatMul pipeline) — far below the per-dispatch cost.
NPU_GRAPH_NODE_OVERHEAD_S = 50e-6


def per_group_matmul_latency(proc: ProcessorSpec, shape: MatMulShape,
                             group_size: int,
                             dtype: DType = DType.INT8) -> float:
    """Latency of a per-group quantized MatMul.

    On processors that support grouped kernels natively (mobile CPUs — the
    layout llama.cpp's K-Quant uses) the cost is the per-tensor cost plus a
    small per-group rescale term.  On the NPU (Table 2: no native support)
    the MatMul decomposes into ``n_groups`` sub-MatMuls — all nodes of one
    graph, each paying a node overhead and poor skinny-``k`` utilization —
    plus a float reduction of the partial results on the NPU's weak float
    vector path, reproducing the 8.1–10.7× penalty of Fig. 4.
    """
    if group_size <= 0:
        raise UnsupportedOperationError(
            f"group_size must be positive, got {group_size}"
        )
    n_groups = max(1, shape.k // group_size)
    if proc.supports_per_group_matmul:
        base = matmul_latency(proc, shape, dtype)
        rescale = proc.vector_latency(shape.m * shape.n, n_groups * 0.01)
        return base + rescale
    # NPU path: n_groups sub-MatMul nodes + float reduction of partials.
    sub_shape = MatMulShape(shape.m, min(group_size, shape.k), shape.n)
    profile = proc.matmul_profile(dtype)
    sub_body = profile.latency(
        sub_shape.m, sub_shape.k, sub_shape.n, sub_shape.weight_bytes(dtype)
    ) - profile.overhead_s
    reduce_elements = shape.m * shape.n * (n_groups - 1)
    reduction = float_reduce_latency(proc, reduce_elements)
    return (profile.overhead_s
            + n_groups * (NPU_GRAPH_NODE_OVERHEAD_S + sub_body)
            + reduction)


def float_reduce_latency(proc: ProcessorSpec, elements: int) -> float:
    """Float summation of ``elements`` partial results.

    On the NPU this runs on its (weak) float vector path; on CPU/GPU it is
    an ordinary vector op.  Two effective ops per element: the partial
    results stream through memory once for the load and once for the
    accumulate/store.
    """
    return proc.vector_latency(elements, 2.0)


def attention_latency(proc: ProcessorSpec, q_len: int, kv_len: int,
                      n_heads: int, head_dim: int) -> float:
    """Float attention core: QK^T, softmax, and PV for one layer.

    Attention is always float (Table 4), so on the NPU this would hit the
    FP16 path; llm.npu therefore schedules it to the CPU/GPU.
    """
    if q_len <= 0 or kv_len <= 0:
        raise UnsupportedOperationError("attention lengths must be positive")
    score_ops = 2.0 * q_len * kv_len * head_dim * n_heads
    pv_ops = 2.0 * q_len * kv_len * head_dim * n_heads
    softmax_elements = q_len * kv_len * n_heads
    if proc.supports(DType.FP16):
        profile = proc.matmul_profile(DType.FP16)
        # Two batched skinny matmuls; weight-streaming side is activations.
        matmuls = (
            profile.latency(q_len, head_dim, kv_len * n_heads,
                            weight_bytes=int(kv_len * head_dim * n_heads * 2))
            + profile.latency(q_len, kv_len, head_dim * n_heads,
                              weight_bytes=int(kv_len * head_dim * n_heads * 2))
        )
    else:
        matmuls = proc.vector_latency(int(score_ops + pv_ops), 1.0)
    softmax = proc.vector_latency(softmax_elements, 4.0)
    return matmuls + softmax


def norm_latency(proc: ProcessorSpec, rows: int, width: int) -> float:
    """LayerNorm / RMSNorm over ``rows`` tokens (float, ~4 ops/element)."""
    return proc.vector_latency(rows * width, 4.0)


def quantize_latency(proc: ProcessorSpec, rows: int, width: int) -> float:
    """Float -> int8 activation quantization (scale, round, clamp)."""
    return proc.vector_latency(rows * width, 3.0)


def shadow_matmul_latency(proc: ProcessorSpec, rows: int,
                          outlier_channels: int, n_out: int) -> float:
    """The CPU-side sparse outlier MatMul of §3.3.

    The extracted outlier tensor is dense ``(rows, outlier_channels)``
    against the cached float weight columns ``(outlier_channels, n_out)``.
    Zero outliers costs nothing (no kernel is launched).
    """
    if outlier_channels <= 0:
        return 0.0
    shape = MatMulShape(rows, outlier_channels, n_out)
    if proc.supports(DType.FP32):
        dtype = DType.FP32
    elif proc.supports(DType.FP16):
        dtype = DType.FP16
    else:
        raise UnsupportedOperationError(
            f"{proc.name} cannot run the float shadow MatMul"
        )
    return matmul_latency(proc, shape, dtype)


def sync_latency(src: ProcessorSpec, dst: ProcessorSpec,
                 nbytes: int, base_s: float = 8e-4) -> float:
    """CPU<->NPU synchronization of an intermediate result.

    Mobile SoCs share physical DRAM (§2.2), so no copy is needed — but
    cache maintenance plus a driver round-trip (interrupt, fence, graph
    re-arm) costs just under a millisecond, plus a per-byte term.  This is
    the §3.3 overhead the paper measures at 29.7% of end-to-end latency
    when every layer keeps shadow execution — and that importance pruning
    eliminates for the 85% least important layers.
    """
    if nbytes < 0:
        raise UnsupportedOperationError(f"negative sync size {nbytes}")
    shared_bw = min(src.matmul[next(iter(src.matmul))].mem_bandwidth,
                    dst.matmul[next(iter(dst.matmul))].mem_bandwidth)
    return base_s + nbytes / shared_bw


def disk_read_latency(nbytes: int, bandwidth: float = 1.2e9,
                      base_s: float = 150e-6) -> float:
    """UFS flash read for cold (non-hot-channel) shadow weights (§3.3)."""
    if nbytes < 0:
        raise UnsupportedOperationError(f"negative read size {nbytes}")
    return base_s + nbytes / bandwidth
