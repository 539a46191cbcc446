"""Model checkpoint serialization.

The real llm.npu "supports standard LLM formats exported from Hugging
Face" (§4); the offline counterpart is a simple ``.npz`` checkpoint format
for the numpy substrate: config as JSON metadata plus one array per
parameter tensor.  Round-trips bit-exactly, so quantization experiments
can share a reference model across processes.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict

import numpy as np

from repro.errors import ModelError
from repro.model.config import ModelConfig
from repro.model.layers import Embedding, LayerNorm, Linear, RMSNorm
from repro.model.transformer import (
    DecoderLayerWeights,
    DecoderModel,
    ModelWeights,
)

#: Checkpoint format version, bumped on layout changes.
FORMAT_VERSION = 1


def _norm_arrays(norm, prefix: str) -> Dict[str, np.ndarray]:
    out = {f"{prefix}.gain": norm.gain}
    if isinstance(norm, LayerNorm):
        out[f"{prefix}.bias"] = norm.bias
    return out


def save_model(model: DecoderModel, path: str) -> None:
    """Write a model checkpoint to ``path`` (``.npz``)."""
    arrays: Dict[str, np.ndarray] = {
        "embedding.table": model.embedding.table,
        "lm_head.weight": model.lm_head.weight,
    }
    arrays.update(_norm_arrays(model.final_norm, "final_norm"))
    for i, layer in enumerate(model.layers):
        w = layer.weights
        for site, op in w.linears().items():
            if not isinstance(op, Linear):
                raise ModelError(
                    f"layer {i} site {site!r} is not a float Linear "
                    f"({type(op).__name__}); save before quantizing"
                )
            arrays[f"layers.{i}.{site}.weight"] = op.weight
            if op.bias is not None:
                arrays[f"layers.{i}.{site}.bias"] = op.bias
        arrays.update(_norm_arrays(w.norm_attn, f"layers.{i}.norm_attn"))
        arrays.update(_norm_arrays(w.norm_ffn, f"layers.{i}.norm_ffn"))

    meta = {
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def _load_norm(kind: str, arrays, prefix: str, name: str):
    gain = arrays[f"{prefix}.gain"]
    if kind == "layernorm":
        return LayerNorm(gain, arrays[f"{prefix}.bias"], name=name)
    return RMSNorm(gain, name=name)


def load_model(path: str) -> DecoderModel:
    """Load a checkpoint written by :func:`save_model`."""
    try:
        arrays = np.load(path)
    except OSError as exc:
        raise ModelError(f"cannot read checkpoint {path}: "
                         f"{exc.strerror or exc}") from exc
    with arrays:
        if "__meta__" not in arrays:
            raise ModelError(f"{path}: not a repro checkpoint (no metadata)")
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ModelError(
                f"{path}: unsupported checkpoint version "
                f"{meta.get('format_version')!r}"
            )
        config = ModelConfig(**meta["config"])

        def linear(prefix: str, name: str) -> Linear:
            bias_key = f"{prefix}.bias"
            bias = arrays[bias_key] if bias_key in arrays else None
            return Linear(arrays[f"{prefix}.weight"], bias=bias, name=name)

        layers = []
        for i in range(config.n_layers):
            p = f"layers.{i}"
            layers.append(DecoderLayerWeights(
                wq=linear(f"{p}.wq", f"l{i}.wq"),
                wk=linear(f"{p}.wk", f"l{i}.wk"),
                wv=linear(f"{p}.wv", f"l{i}.wv"),
                wo=linear(f"{p}.wo", f"l{i}.wo"),
                w_up=linear(f"{p}.w_up", f"l{i}.w_up"),
                w_down=linear(f"{p}.w_down", f"l{i}.w_down"),
                w_gate=(linear(f"{p}.w_gate", f"l{i}.w_gate")
                        if f"{p}.w_gate.weight" in arrays else None),
                norm_attn=_load_norm(config.norm, arrays, f"{p}.norm_attn",
                                     f"l{i}.norm_attn"),
                norm_ffn=_load_norm(config.norm, arrays, f"{p}.norm_ffn",
                                    f"l{i}.norm_ffn"),
            ))
        weights = ModelWeights(
            embedding=Embedding(arrays["embedding.table"]),
            layers=layers,
            final_norm=_load_norm(config.norm, arrays, "final_norm",
                                  "final_norm"),
            lm_head=linear("lm_head", "lm_head"),
        )
    return DecoderModel.from_weights(config, weights)
