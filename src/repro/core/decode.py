"""Decode-stage latency model.

llm.npu delegates decoding to the MLLM CPU backend (§4): token-by-token
autoregressive generation with W8A8 linears and float attention, M=1.
Decoding is memory-bound (every weight streams once per token), so the
choice of CPU vs GPU backend shifts end-to-end latency — the Fig. 18(b)
effect — without touching prefill.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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


def decode_token_s(config: ModelConfig, proc: ProcessorSpec,
                   kv_len: int, options: DecodeOptions) -> float:
    """Seconds to decode one token with ``kv_len`` cached positions."""
    if kv_len < 1:
        raise EngineError(f"kv_len must be >= 1, got {kv_len}")
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

    per_layer = (
        mm(h, config.q_dim) + 2 * mm(h, config.kv_dim)   # QKV
        + attention_latency(proc, 1, kv_len, config.n_heads,
                            config.dim_per_head)
        + mm(config.q_dim, h)                            # O
        + n_up * mm(h, f) + mm(f, h)                     # FFN
        + 2 * norm_latency(proc, 1, h)
        + 2 * quantize_latency(proc, 1, h)
    )
    lm_head = mm(h, config.vocab_size)
    return (config.n_layers * per_layer + lm_head) / options.efficiency


def decode_latency_s(config: ModelConfig, proc: ProcessorSpec,
                     prompt_len: int, output_tokens: int,
                     options: DecodeOptions,
                     token_s: Optional[Callable[[int], float]] = None
                     ) -> float:
    """Total decode time for ``output_tokens`` after a ``prompt_len`` prefill.

    ``token_s(kv_len)`` may stand in for this :func:`decode_token_s`
    (a memoized copy of it, e.g. ``PreparedGraph.decode_token_costs``).
    """
    if output_tokens < 0:
        raise EngineError(f"negative output_tokens {output_tokens}")
    token_s = token_s or partial(decode_token_s, config, proc, options=options)
    total = 0.0
    for i in range(output_tokens):
        total += token_s(prompt_len + i + 1)
    return total
