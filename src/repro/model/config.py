"""Model configurations for the decoder-only transformer substrate.

The five mobile-sized LLMs evaluated by the paper (Table 1 / §4.1) are
described here by their public architectural hyper-parameters.  The latency,
energy and memory experiments need only these shapes; the numerical accuracy
experiments run on small synthetic instances created via :func:`tiny_config`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.keys import ContentKeyed

#: Activation function names understood by :mod:`repro.model.layers`.
ACTIVATIONS = ("silu", "gelu", "relu")

#: Normalization kinds understood by :mod:`repro.model.layers`.
NORMS = ("rmsnorm", "layernorm")


@dataclass(frozen=True)
class ModelConfig(ContentKeyed):
    """Architecture of a decoder-only transformer.

    Attributes mirror the usual HuggingFace config fields.  ``n_kv_heads``
    enables grouped-query / multi-query attention (Mistral, Gemma).
    ``head_dim`` may differ from ``hidden_size // n_heads`` (Gemma-2B).
    """

    name: str
    hidden_size: int
    n_layers: int
    n_heads: int
    ffn_hidden: int
    vocab_size: int
    max_context: int
    n_kv_heads: Optional[int] = None
    head_dim: Optional[int] = None
    activation: str = "silu"
    norm: str = "rmsnorm"
    gated_ffn: bool = True
    rope_base: float = 10000.0
    params_billion: Optional[float] = None

    def __post_init__(self) -> None:
        if self.hidden_size <= 0 or self.n_layers <= 0 or self.n_heads <= 0:
            raise ConfigError(f"non-positive dimension in config {self.name!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.norm not in NORMS:
            raise ConfigError(f"unknown norm {self.norm!r}")
        if self.kv_heads > self.n_heads or self.n_heads % self.kv_heads != 0:
            raise ConfigError(
                f"n_kv_heads ({self.kv_heads}) must divide n_heads ({self.n_heads})"
            )
        if self.head_dim is None and self.hidden_size % self.n_heads != 0:
            raise ConfigError(
                f"hidden_size ({self.hidden_size}) not divisible by "
                f"n_heads ({self.n_heads}); set head_dim explicitly"
            )

    @property
    def kv_heads(self) -> int:
        """Number of key/value heads (defaults to ``n_heads`` — full MHA)."""
        return self.n_kv_heads if self.n_kv_heads is not None else self.n_heads

    @property
    def dim_per_head(self) -> int:
        """Per-head dimension."""
        if self.head_dim is not None:
            return self.head_dim
        return self.hidden_size // self.n_heads

    @property
    def q_dim(self) -> int:
        """Total query projection output width."""
        return self.n_heads * self.dim_per_head

    @property
    def kv_dim(self) -> int:
        """Total key (or value) projection output width."""
        return self.kv_heads * self.dim_per_head

    def param_count(self, include_embeddings: bool = True) -> int:
        """Exact parameter count implied by the shapes.

        Used to size weight memory in the simulator; matches the advertised
        parameter counts of the real checkpoints to within a few percent.
        """
        h, f = self.hidden_size, self.ffn_hidden
        per_layer = h * self.q_dim + 2 * h * self.kv_dim + self.q_dim * h
        ffn_mats = 3 if self.gated_ffn else 2
        per_layer += ffn_mats * h * f
        per_layer += 2 * h  # two norms per block
        total = self.n_layers * per_layer + h  # final norm
        if include_embeddings:
            total += 2 * self.vocab_size * h  # embed + lm head
        return total

    def weight_bytes(self, bits_per_weight: int = 8,
                     include_embeddings: bool = False) -> int:
        """Weight footprint at the given quantization width."""
        return self.param_count(include_embeddings) * bits_per_weight // 8

    def replace(self, **kwargs) -> "ModelConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Presets: the five LLMs from the paper's evaluation (§4.1), using their
# published architecture hyper-parameters.
# ---------------------------------------------------------------------------

QWEN15_18B = ModelConfig(
    name="Qwen1.5-1.8B",
    hidden_size=2048,
    n_layers=24,
    n_heads=16,
    ffn_hidden=5504,
    vocab_size=151936,
    max_context=32768,
    activation="silu",
    norm="rmsnorm",
    gated_ffn=True,
    params_billion=1.8,
)

GEMMA_2B = ModelConfig(
    name="Gemma-2B",
    hidden_size=2048,
    n_layers=18,
    n_heads=8,
    n_kv_heads=1,
    head_dim=256,
    ffn_hidden=16384,
    vocab_size=256000,
    max_context=8192,
    activation="gelu",
    norm="rmsnorm",
    gated_ffn=True,
    params_billion=2.0,
)

PHI2_27B = ModelConfig(
    name="Phi-2-2.7B",
    hidden_size=2560,
    n_layers=32,
    n_heads=32,
    ffn_hidden=10240,
    vocab_size=51200,
    max_context=2048,
    activation="gelu",
    norm="layernorm",
    gated_ffn=False,
    params_billion=2.7,
)

LLAMA2_7B = ModelConfig(
    name="LlaMA-2-7B",
    hidden_size=4096,
    n_layers=32,
    n_heads=32,
    ffn_hidden=11008,
    vocab_size=32000,
    max_context=4096,
    activation="silu",
    norm="rmsnorm",
    gated_ffn=True,
    params_billion=7.0,
)

MISTRAL_7B = ModelConfig(
    name="Mistral-7B",
    hidden_size=4096,
    n_layers=32,
    n_heads=32,
    n_kv_heads=8,
    ffn_hidden=14336,
    vocab_size=32000,
    max_context=32768,
    activation="silu",
    norm="rmsnorm",
    gated_ffn=True,
    params_billion=7.0,
)

#: Registry of the paper's evaluated models, keyed by canonical name.
PAPER_MODELS: Dict[str, ModelConfig] = {
    cfg.name: cfg
    for cfg in (QWEN15_18B, GEMMA_2B, PHI2_27B, LLAMA2_7B, MISTRAL_7B)
}

# Additional mobile-sized LLMs from the paper's Table 1 (not part of the
# five-model evaluation set, but useful for what-if studies).

QWEN2_15B = ModelConfig(
    name="Qwen2-1.5B",
    hidden_size=1536,
    n_layers=28,
    n_heads=12,
    n_kv_heads=2,
    ffn_hidden=8960,
    vocab_size=151936,
    max_context=32768,
    activation="silu",
    norm="rmsnorm",
    gated_ffn=True,
    params_billion=1.5,
)

PHI3_MINI = ModelConfig(
    name="Phi3-mini-3.8B",
    hidden_size=3072,
    n_layers=32,
    n_heads=32,
    ffn_hidden=8192,
    vocab_size=32064,
    max_context=131072,
    activation="silu",
    norm="rmsnorm",
    gated_ffn=True,
    params_billion=3.8,
)

#: Extra Table 1 presets, outside the evaluated five.
EXTRA_MODELS: Dict[str, ModelConfig] = {
    cfg.name: cfg for cfg in (QWEN2_15B, PHI3_MINI)
}


def get_model_config(name: str) -> ModelConfig:
    """Look up a model preset by (case-insensitive) name.

    Searches the paper's five evaluated models first, then the extra
    Table 1 presets.
    """
    for registry in (PAPER_MODELS, EXTRA_MODELS):
        for key, cfg in registry.items():
            if key.lower() == name.lower():
                return cfg
    available = sorted(PAPER_MODELS) + sorted(EXTRA_MODELS)
    raise ConfigError(f"unknown model {name!r}; available: {available}")


def tiny_config(
    name: str = "tiny",
    hidden_size: int = 64,
    n_layers: int = 4,
    n_heads: int = 4,
    ffn_hidden: int = 172,
    vocab_size: int = 199,
    max_context: int = 256,
    **kwargs,
) -> ModelConfig:
    """A small configuration for numerical experiments and tests.

    Defaults give a ~400k-parameter model whose forward pass runs in
    milliseconds yet exercises every layer kind the paper models use.
    """
    return ModelConfig(
        name=name,
        hidden_size=hidden_size,
        n_layers=n_layers,
        n_heads=n_heads,
        ffn_hidden=ffn_hidden,
        vocab_size=vocab_size,
        max_context=max_context,
        **kwargs,
    )
