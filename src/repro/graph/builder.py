"""Builds the subgraph-level execution plan for one chunk of prefill.

Given a model config, a device, a chunk length and a chunk index, the
builder emits the six :class:`SubgraphSpec` per transformer block (see
:mod:`repro.graph.ops`) with latencies computed from the device's cost
models, plus the per-NPU-subgraph :class:`ShadowSpec` describing the
shadow outlier work (§3.3) for unpruned layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import GraphError
from repro.hw.dma import DmaConfig
from repro.hw.latency import (
    NPU_GRAPH_NODE_OVERHEAD_S,
    MatMulShape,
    attention_latency,
    disk_read_latency,
    matmul_latency,
    norm_latency,
    per_group_matmul_latency,
    quantize_latency,
    shadow_matmul_latency,
    sync_latency,
)
from repro.hw.processor import DType, ProcessorSpec
from repro.hw.soc import SocSpec
from repro.graph.ops import (
    Backend,
    OpKind,
    OpSpec,
    SG_ATTN,
    SG_FFN,
    SG_PRE_ATTN,
    SG_PRE_FFN,
    SG_QKV,
    SG_WO,
    ShadowSpec,
    SubgraphSpec,
    at_layer,
)
from repro.graph.shapes import equivalent_shape_gain
from repro.model.config import ModelConfig


@dataclass(frozen=True)
class ShadowProfile:
    """Per-layer shadow-execution parameters from calibration (§3.3)."""

    outlier_channels: int = 8
    pruned: bool = False
    hot_hit_rate: float = 1.0
    cold_bytes_per_miss: int = 0


@dataclass(frozen=True)
class BuildOptions:
    """Knobs for the graph builder.

    ``float_backend`` selects where float subgraphs run: 'cpu' or 'gpu'
    (the Fig. 18 coordination comparison), or 'npu' — the §5 what-if where
    a mixed-precision NPU runs its own float operators (catastrophic on
    today's Hexagon FP16 path, viable on a hypothetical FP16-strong NPU).  ``weight_dtype`` / the quant
    layout control the NPU MatMul cost (per-group triggers the Fig. 4
    decomposition penalty).  ``equivalent_shapes`` applies the §4
    shape-profiling speedup to NPU linears.
    """

    float_backend: str = "cpu"
    weight_dtype: DType = DType.INT8
    per_group: bool = False
    group_size: int = 32
    equivalent_shapes: bool = True
    #: Opt-in explicit DMA/compute-overlap model for NPU weight streaming
    #: (:mod:`repro.hw.dma`).  ``None`` keeps the legacy per-profile
    #: ``combine`` rule — all golden artifacts are built with ``None``.
    dma: Optional[DmaConfig] = None

    def __post_init__(self) -> None:
        if self.float_backend not in ("cpu", "gpu", "npu"):
            raise GraphError(
                f"float_backend must be 'cpu', 'gpu' or 'npu', "
                f"got {self.float_backend!r}"
            )


@dataclass
class ChunkPlan:
    """The execution plan for one chunk: subgraphs plus shadow specs."""

    chunk_index: int
    chunk_len: int
    kv_len: int
    subgraphs: List[SubgraphSpec]
    shadows: Dict[Tuple[int, int], ShadowSpec] = field(default_factory=dict)

    def subgraph(self, layer: int, position: int) -> SubgraphSpec:
        return self.subgraphs[layer * 6 + position]

    def npu_latency_s(self) -> float:
        return sum(s.latency_s for s in self.subgraphs if s.is_npu)

    def float_latency_s(self) -> float:
        return sum(s.latency_s for s in self.subgraphs if not s.is_npu)


#: Process-wide graph-cache telemetry (all builders), for
#: :func:`graph_cache_stats`.  Per-registry counters are attached with
#: :meth:`GraphBuilder.attach_metrics`.
_CACHE_HITS = 0
_CACHE_MISSES = 0


def graph_cache_stats() -> Dict[str, int]:
    """Process-wide chunk-plan cache hit/miss counts."""
    return {"hits": _CACHE_HITS, "misses": _CACHE_MISSES}


def reset_graph_cache_stats() -> None:
    global _CACHE_HITS, _CACHE_MISSES
    _CACHE_HITS = 0
    _CACHE_MISSES = 0


class GraphBuilder:
    """Computes subgraph latencies for a (model, device, options) triple.

    Chunk plans are memoized per builder: within one builder the
    (config, device, options) triple is fixed, so a plan is a pure
    function of ``(chunk_index, chunk_len, shadow_profiles)`` — and the
    step loop asks for the same shapes over and over (every request
    replays the same chunk ladder).  Cache hits return a shallow copy
    (fresh ``subgraphs`` list / ``shadows`` dict over shared frozen
    specs), so callers may rearrange a plan without corrupting the
    cache.
    """

    def __init__(self, config: ModelConfig, device: SocSpec,
                 options: Optional[BuildOptions] = None):
        self.config = config
        self.device = device
        self.options = options if options is not None else BuildOptions()
        self.float_proc: ProcessorSpec = device.processors[
            self.options.float_backend
        ]
        self.npu: ProcessorSpec = device.npu
        self._plan_cache: Dict[Tuple, ChunkPlan] = {}
        self._metrics = None

    def attach_metrics(self, registry) -> None:
        """Mirror cache hits/misses into ``graph_cache_{hits,misses}_total``
        counters of a :class:`~repro.obs.metrics.MetricsRegistry`."""
        self._metrics = registry

    # -- NPU linear costs ---------------------------------------------------

    def _npu_matmul_s(self, m: int, k: int, n: int,
                      first_in_subgraph: bool = True) -> float:
        """One NPU MatMul; non-first MatMuls of a subgraph pay only the
        cheap intra-graph node overhead, not the full dispatch (the whole
        subgraph is one pre-built QNN graph dispatched once)."""
        shape = MatMulShape(m, k, n)
        if self.options.per_group:
            # The Fig. 4 decomposition dominates here; the skinny-k
            # sub-MatMuls leave nothing for weight streaming to hide, so
            # the per-group path keeps the legacy combine model.
            base = per_group_matmul_latency(
                self.npu, shape, self.options.group_size,
                self.options.weight_dtype,
            )
        else:
            base = matmul_latency(self.npu, shape, self.options.weight_dtype,
                                  dma=self.options.dma)
        if self.options.equivalent_shapes:
            base /= equivalent_shape_gain(m)
        if not first_in_subgraph:
            profile = self.npu.matmul_profile(self.options.weight_dtype)
            base = max(base - profile.overhead_s + NPU_GRAPH_NODE_OVERHEAD_S,
                       0.0)
        return base

    # -- subgraph constructors ----------------------------------------------

    def _pre_attn(self, layer: int, rows: int) -> SubgraphSpec:
        h = self.config.hidden_size
        latency = (norm_latency(self.float_proc, rows, h)
                   + quantize_latency(self.float_proc, rows, h))
        ops = (
            OpSpec(OpKind.NORM, (rows, h)),
            OpSpec(OpKind.QUANTIZE, (rows, h)),
        )
        return SubgraphSpec(layer, SG_PRE_ATTN, Backend.FLOAT, ops, latency,
                            static=True, activation_bytes=rows * h * 4)

    def _qkv(self, layer: int, rows: int) -> SubgraphSpec:
        cfg = self.config
        h = cfg.hidden_size
        bpw = self.options.weight_dtype.bytes
        latency = (self._npu_matmul_s(rows, h, cfg.q_dim)
                   + 2 * self._npu_matmul_s(rows, h, cfg.kv_dim,
                                            first_in_subgraph=False))
        ops = (
            OpSpec(OpKind.LINEAR, (rows, h, cfg.q_dim), h * cfg.q_dim * bpw),
            OpSpec(OpKind.LINEAR, (rows, h, cfg.kv_dim), h * cfg.kv_dim * bpw),
            OpSpec(OpKind.LINEAR, (rows, h, cfg.kv_dim), h * cfg.kv_dim * bpw),
        )
        weight_bytes = h * (cfg.q_dim + 2 * cfg.kv_dim) * bpw
        act_bytes = rows * (cfg.q_dim + 2 * cfg.kv_dim) * 4
        return SubgraphSpec(layer, SG_QKV, Backend.NPU, ops, latency,
                            static=True, weight_bytes=weight_bytes,
                            activation_bytes=act_bytes)

    def _attention(self, layer: int, rows: int, kv_len: int) -> SubgraphSpec:
        cfg = self.config
        rope = self.float_proc.vector_latency(
            rows * (cfg.q_dim + cfg.kv_dim), 4.0
        )
        attn = attention_latency(self.float_proc, rows, kv_len,
                                 cfg.n_heads, cfg.dim_per_head)
        dequant = quantize_latency(self.float_proc, rows, cfg.q_dim)
        ops = (
            OpSpec(OpKind.ROPE, (rows, cfg.q_dim)),
            OpSpec(OpKind.ATTENTION, (rows, kv_len)),
            OpSpec(OpKind.DEQUANTIZE, (rows, cfg.q_dim)),
        )
        # Workspace only: the attention graph reads the shared KV-cache
        # region and the static subgraphs' activation buffers in place; its
        # private memory is a tiled score buffer plus an output accumulator
        # (mobile kernels compute scores in 64-column tiles).
        score_tile = min(kv_len, 64)
        act_bytes = (rows * score_tile * cfg.n_heads
                     + rows * cfg.n_heads * cfg.dim_per_head) * 4
        return SubgraphSpec(layer, SG_ATTN, Backend.FLOAT, ops,
                            rope + attn + dequant, static=False,
                            activation_bytes=act_bytes)

    def _wo(self, layer: int, rows: int) -> SubgraphSpec:
        cfg = self.config
        bpw = self.options.weight_dtype.bytes
        latency = self._npu_matmul_s(rows, cfg.q_dim, cfg.hidden_size)
        ops = (OpSpec(OpKind.LINEAR, (rows, cfg.q_dim, cfg.hidden_size),
                      cfg.q_dim * cfg.hidden_size * bpw),)
        return SubgraphSpec(layer, SG_WO, Backend.NPU, ops, latency,
                            static=True,
                            weight_bytes=cfg.q_dim * cfg.hidden_size * bpw,
                            activation_bytes=rows * cfg.hidden_size * 4)

    def _pre_ffn(self, layer: int, rows: int) -> SubgraphSpec:
        h = self.config.hidden_size
        latency = (self.float_proc.vector_latency(rows * h, 1.0)  # residual
                   + norm_latency(self.float_proc, rows, h)
                   + quantize_latency(self.float_proc, rows, h))
        ops = (
            OpSpec(OpKind.ADD, (rows, h)),
            OpSpec(OpKind.NORM, (rows, h)),
            OpSpec(OpKind.QUANTIZE, (rows, h)),
        )
        return SubgraphSpec(layer, SG_PRE_FFN, Backend.FLOAT, ops, latency,
                            static=True, activation_bytes=rows * h * 4)

    def _ffn(self, layer: int, rows: int) -> SubgraphSpec:
        cfg = self.config
        h, f = cfg.hidden_size, cfg.ffn_hidden
        bpw = self.options.weight_dtype.bytes
        n_up = 2 if cfg.gated_ffn else 1
        latency = (self._npu_matmul_s(rows, h, f)
                   + (n_up - 1) * self._npu_matmul_s(rows, h, f,
                                                     first_in_subgraph=False)
                   + self.npu.vector_latency(rows * f, 6.0)  # act on NPU
                   + self._npu_matmul_s(rows, f, h,
                                        first_in_subgraph=False))
        ops = tuple(
            [OpSpec(OpKind.LINEAR, (rows, h, f), h * f * bpw)] * n_up
            + [OpSpec(OpKind.ACTIVATION, (rows, f)),
               OpSpec(OpKind.LINEAR, (rows, f, h), f * h * bpw)]
        )
        weight_bytes = (n_up + 1) * h * f * bpw
        return SubgraphSpec(layer, SG_FFN, Backend.NPU, ops, latency,
                            static=True, weight_bytes=weight_bytes,
                            activation_bytes=rows * f * 4)

    def _shadow(self, layer: int, position: int, rows: int, n_out: int,
                profile: ShadowProfile) -> ShadowSpec:
        if profile.pruned or profile.outlier_channels <= 0:
            return ShadowSpec(layer, position, 0.0, 0.0, 0.0)
        matmul = shadow_matmul_latency(
            self.float_proc, rows, profile.outlier_channels, n_out
        )
        if self.float_proc is self.npu:
            # same processor: the merge is a vector add, no cross-
            # processor fence (the §5 mixed-precision-NPU what-if)
            sync = self.npu.vector_latency(rows * n_out, 1.0)
        else:
            sync = sync_latency(self.float_proc, self.npu,
                                rows * n_out * 4)
        disk = 0.0
        miss_rate = 1.0 - profile.hot_hit_rate
        if miss_rate > 0 and profile.cold_bytes_per_miss > 0:
            expected_misses = profile.outlier_channels * miss_rate
            disk = expected_misses * disk_read_latency(
                profile.cold_bytes_per_miss
            )
        return ShadowSpec(layer, position, matmul, sync, disk,
                          matmul_ops=2.0 * rows * profile.outlier_channels
                          * n_out)

    # -- public API -----------------------------------------------------------

    def build_chunk(self, chunk_index: int, chunk_len: int,
                    shadow_profiles: Optional[Dict[int, ShadowProfile]] = None
                    ) -> ChunkPlan:
        """Build the plan for chunk ``chunk_index`` (0-based).

        The static-shape constraint means every chunk executes with
        ``rows = chunk_len``; the attention KV length grows with the chunk
        index (``(i+1) * chunk_len``) per the §3.2 causal decomposition.
        """
        if chunk_index < 0 or chunk_len <= 0:
            raise GraphError(
                f"invalid chunk index {chunk_index} / length {chunk_len}"
            )
        global _CACHE_HITS, _CACHE_MISSES
        key = (
            chunk_index, chunk_len,
            None if shadow_profiles is None
            else tuple(sorted(shadow_profiles.items())),
        )
        cached = self._plan_cache.get(key)
        if cached is not None:
            _CACHE_HITS += 1
            if self._metrics is not None:
                self._metrics.counter("graph_cache_hits_total").inc()
            return ChunkPlan(cached.chunk_index, cached.chunk_len,
                             cached.kv_len, list(cached.subgraphs),
                             dict(cached.shadows))
        _CACHE_MISSES += 1
        if self._metrics is not None:
            self._metrics.counter("graph_cache_misses_total").inc()
        rows = chunk_len
        kv_len = (chunk_index + 1) * chunk_len
        cfg = self.config
        # Every layer's subgraph at a position is the same but for its
        # layer: compute each position once and stamp it per layer.
        block = (
            self._pre_attn(0, rows),
            self._qkv(0, rows),
            self._attention(0, rows, kv_len),
            self._wo(0, rows),
            self._pre_ffn(0, rows),
            self._ffn(0, rows),
        )
        for template in block:
            template.matmul_ops  # computed once, carried by every stamp
        subgraphs = [at_layer(template, layer)
                     for layer in range(cfg.n_layers) for template in block]
        n_up = 2 if cfg.gated_ffn else 1
        widths = ((SG_QKV, cfg.q_dim + 2 * cfg.kv_dim),
                  (SG_WO, cfg.hidden_size),
                  (SG_FFN, n_up * cfg.ffn_hidden + cfg.hidden_size))
        # The shadow specs of a layer depend only on its profile.
        by_profile: Dict[ShadowProfile, Tuple[ShadowSpec, ...]] = {}
        default = ShadowProfile()
        shadows: Dict[Tuple[int, int], ShadowSpec] = {}
        for layer in range(cfg.n_layers):
            profile = (shadow_profiles or {}).get(layer, default)
            templates = by_profile.get(profile)
            if templates is None:
                templates = by_profile[profile] = tuple(
                    self._shadow(0, position, rows, n_out, profile)
                    for position, n_out in widths)
            for template in templates:
                shadows[(layer, template.position)] = at_layer(template,
                                                               layer)
        self._plan_cache[key] = ChunkPlan(chunk_index, chunk_len, kv_len,
                                          list(subgraphs), dict(shadows))
        return ChunkPlan(chunk_index, chunk_len, kv_len, subgraphs, shadows)

    def share_chunk(self, base: ChunkPlan, chunk_index: int) -> ChunkPlan:
        """The plan for chunk ``chunk_index`` built on ``base`` (§3.2).

        Only attention depends on the chunk index (through its KV
        length), so only the attention subgraphs are built, one per KV
        length stamped per layer; the static subgraphs and the shadow
        specs are ``base``'s own objects.  The result equals
        ``build_chunk(chunk_index, base.chunk_len, ...)`` with ``base``'s
        shadow profiles, field for field.
        """
        if chunk_index < 0:
            raise GraphError(f"invalid chunk index {chunk_index}")
        rows = base.chunk_len
        kv_len = (chunk_index + 1) * rows
        attention = self._attention(0, rows, kv_len)
        attention.matmul_ops  # computed once, carried by every stamp
        subgraphs = [
            at_layer(attention, sg.layer) if sg.position == SG_ATTN else sg
            for sg in base.subgraphs
        ]
        return ChunkPlan(chunk_index, rows, kv_len, subgraphs,
                         dict(base.shadows))
