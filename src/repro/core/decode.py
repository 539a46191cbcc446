"""Decode-stage latency model.

llm.npu delegates decoding to the MLLM CPU backend (§4): token-by-token
autoregressive generation with W8A8 linears and float attention, M=1.
Decoding is memory-bound (every weight streams once per token), so the
choice of CPU vs GPU backend shifts end-to-end latency — the Fig. 18(b)
effect — without touching prefill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import EngineError
from repro.hw.latency import (
    MatMulShape,
    attention_latency,
    matmul_latency,
    norm_latency,
    per_group_matmul_latency,
    quantize_latency,
)
from repro.hw.processor import DType, ProcessorSpec
from repro.model.config import ModelConfig


@dataclass(frozen=True)
class DecodeOptions:
    """Decode backend configuration."""

    backend: str = "cpu"
    weight_dtype: DType = DType.INT8
    per_group: bool = False
    group_size: int = 32
    efficiency: float = 1.0  # engine-quality factor (baselines < 1)
    #: Fraction of the per-dispatch MatMul overhead actually paid in the
    #: autoregressive loop.  Decode engines keep a persistent threadpool /
    #: command buffer, so the cold-dispatch overhead the Table 3
    #: micro-benchmarks include is almost entirely amortized away.
    overhead_scale: float = 0.05

    def __post_init__(self) -> None:
        if self.efficiency <= 0:
            raise EngineError("efficiency must be positive")
        if not 0.0 <= self.overhead_scale <= 1.0:
            raise EngineError("overhead_scale must be in [0, 1]")


def decode_token_costs(config: ModelConfig, proc: ProcessorSpec,
                       options: DecodeOptions) -> Callable[[int], float]:
    """:func:`decode_token_s` as a function of ``kv_len``.

    Every term but attention is independent of ``kv_len``, so those are
    computed here, once; the returned function adds them in the same
    order as the one-line sum, so it returns the same bits.
    """
    h, f = config.hidden_size, config.ffn_hidden
    n_up = 2 if config.gated_ffn else 1

    profile = proc.matmul_profile(options.weight_dtype)
    amortized = profile.overhead_s * (1.0 - options.overhead_scale)

    def mm(k: int, n: int) -> float:
        shape = MatMulShape(1, k, n)
        if options.per_group:
            base = per_group_matmul_latency(proc, shape, options.group_size,
                                            options.weight_dtype)
        else:
            base = matmul_latency(proc, shape, options.weight_dtype)
        return max(base - amortized, 0.0)

    qkv = mm(h, config.q_dim) + 2 * mm(h, config.kv_dim)
    o_proj = mm(config.q_dim, h)
    ffn_up = n_up * mm(h, f)
    ffn_down = mm(f, h)
    norms = 2 * norm_latency(proc, 1, h)
    quants = 2 * quantize_latency(proc, 1, h)
    lm_head = mm(h, config.vocab_size)
    n_layers, n_heads = config.n_layers, config.n_heads
    dim_per_head, efficiency = config.dim_per_head, options.efficiency

    def token_s(kv_len: int) -> float:
        if kv_len < 1:
            raise EngineError(f"kv_len must be >= 1, got {kv_len}")
        per_layer = (
            qkv
            + attention_latency(proc, 1, kv_len, n_heads, dim_per_head)
            + o_proj + ffn_up + ffn_down + norms + quants
        )
        return (n_layers * per_layer + lm_head) / efficiency

    return token_s


def decode_token_s(config: ModelConfig, proc: ProcessorSpec,
                   kv_len: int, options: DecodeOptions) -> float:
    """Seconds to decode one token with ``kv_len`` cached positions."""
    return decode_token_costs(config, proc, options)(kv_len)


def decode_latency_s(config: ModelConfig, proc: ProcessorSpec,
                     prompt_len: int, output_tokens: int,
                     options: DecodeOptions,
                     token_s: Optional[Callable[[int], float]] = None
                     ) -> float:
    """Total decode time for ``output_tokens`` after a ``prompt_len`` prefill.

    ``token_s(kv_len)`` may stand in for the function
    :func:`decode_token_costs` would build (a memoized copy of it, e.g.
    ``PreparedGraph.decode_token_costs``).
    """
    if output_tokens < 0:
        raise EngineError(f"negative output_tokens {output_tokens}")
    token_s = token_s or decode_token_costs(config, proc, options)
    total = 0.0
    for i in range(output_tokens):
        total += token_s(prompt_len + i + 1)
    return total
