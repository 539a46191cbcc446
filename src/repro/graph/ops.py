"""Operator and subgraph IR for the execution engines.

The unit of scheduling in llm.npu is the *subgraph* (§3.4): a contiguous
run of operators with a single backend affinity.  A transformer block
splits into six subgraphs — the granularity that reproduces the paper's
"120 out of 144 subgraphs can be shared" measurement on Qwen1.5-1.8B
(24 blocks × 6 subgraphs, with only the attention subgraph per block being
dynamic):

====  =====  ========================================  =======  ========
idx   proc   contents                                  dtype    static?
====  =====  ========================================  =======  ========
0     CPU    pre-attention norm + activation quantize  float    yes
1     NPU    Q/K/V linear projections                  int8     yes
2     CPU    RoPE + attention + dequant glue           float    **no**
3     NPU    output (O) projection                     int8     yes
4     CPU    residual add + FFN norm + quantize        float    yes
5     NPU    FFN (gate/up, activation, down)           int8     yes
====  =====  ========================================  =======  ========

Only subgraph 2 depends on the chunk *position* (its KV length grows with
the chunk index); every other subgraph depends only on the chunk length
and is shared across chunks by the chunk-sharing graph (§3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.errors import GraphError


class OpKind(enum.Enum):
    """Operator categories with distinct cost models."""

    LINEAR = "linear"
    ATTENTION = "attention"
    NORM = "norm"
    ACTIVATION = "activation"
    QUANTIZE = "quantize"
    DEQUANTIZE = "dequantize"
    ROPE = "rope"
    ADD = "add"
    SHADOW_MATMUL = "shadow_matmul"
    SYNC = "sync"


class Backend(enum.Enum):
    """Which processor class a subgraph is affine to."""

    NPU = "npu"
    FLOAT = "float"  # CPU or GPU, decided by the engine configuration


@dataclass(frozen=True)
class OpSpec:
    """One operator inside a subgraph.

    ``shape`` is operator-specific: ``(m, k, n)`` for linears,
    ``(q_len, kv_len)`` for attention, ``(rows, width)`` for vector ops.
    """

    kind: OpKind
    shape: Tuple[int, ...]
    weight_bytes: int = 0

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.shape):
            raise GraphError(f"negative dimension in {self.kind}: {self.shape}")

    @property
    def matmul_ops(self) -> float:
        """Arithmetic MatMul work of this operator (2·M·K·N MAC pairs).

        Only operators whose shape is a full ``(m, k, n)`` product carry
        MatMul work; vector/attention operators return 0 (their shapes
        don't determine a flop count without the model config).  This is
        the numerator of the roofline analysis in
        :mod:`repro.obs.profile` — achieved ops/s over a processor's
        Table-3-calibrated ``peak_ops``.
        """
        if self.kind in (OpKind.LINEAR, OpKind.SHADOW_MATMUL) \
                and len(self.shape) == 3:
            m, k, n = self.shape
            return 2.0 * m * k * n
        return 0.0


#: Subgraph position indices within a block, named for readability.
SG_PRE_ATTN, SG_QKV, SG_ATTN, SG_WO, SG_PRE_FFN, SG_FFN = range(6)

#: Subgraphs per transformer block.
SUBGRAPHS_PER_BLOCK = 6

#: Which subgraph positions run on the NPU.
NPU_POSITIONS = frozenset({SG_QKV, SG_WO, SG_FFN})

#: Which subgraph positions are dynamic (depend on the chunk index).
DYNAMIC_POSITIONS = frozenset({SG_ATTN})


@dataclass(frozen=True)
class SubgraphSpec:
    """A scheduling unit: its ops, backend, and pre-computed latency.

    ``layer`` and ``position`` locate it inside the model; ``static`` is
    the §3.2 shareability property (independent of the chunk index).
    """

    layer: int
    position: int
    backend: Backend
    ops: Tuple[OpSpec, ...]
    latency_s: float
    static: bool
    weight_bytes: int = 0
    activation_bytes: int = 0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise GraphError(
                f"subgraph l{self.layer}p{self.position}: negative latency"
            )
        if not 0 <= self.position < SUBGRAPHS_PER_BLOCK:
            raise GraphError(f"invalid subgraph position {self.position}")

    @property
    def name(self) -> str:
        return f"l{self.layer}.sg{self.position}"

    @property
    def is_npu(self) -> bool:
        return self.backend is Backend.NPU

    def op_count(self) -> int:
        return len(self.ops)

    @cached_property
    def matmul_ops(self) -> float:
        """Total MatMul arithmetic work of the subgraph (see
        :attr:`OpSpec.matmul_ops`), summed once per subgraph object:
        chunk plans share their static subgraphs."""
        return sum(op.matmul_ops for op in self.ops)


@dataclass(frozen=True)
class ShadowSpec:
    """The CPU-side shadow work attached to one NPU subgraph (§3.3).

    ``matmul_s`` is the sparse outlier MatMul time, ``sync_s`` the
    CPU↔NPU merge synchronization, ``disk_s`` any cold-weight retrieval.
    All three are zero when the layer's outliers were pruned.
    """

    layer: int
    position: int
    matmul_s: float
    sync_s: float
    disk_s: float = 0.0
    matmul_ops: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.matmul_s > 0 or self.sync_s > 0

    @property
    def total_s(self) -> float:
        return self.matmul_s + self.sync_s + self.disk_s


def at_layer(spec, layer: int):
    """A copy of the frozen ``spec`` (a :class:`SubgraphSpec` or
    :class:`ShadowSpec`) at ``layer``.

    No cost function reads the layer, so the builder computes each
    position once per chunk and stamps it per layer.  The copy shares
    ``spec``'s ops tuple and whatever ``spec`` has cached, such as a
    computed :attr:`SubgraphSpec.matmul_ops`; ``spec`` was validated on
    construction, and the layer is not validated.
    """
    copy = object.__new__(type(spec))
    vars(copy).update(vars(spec), layer=layer)
    return copy
