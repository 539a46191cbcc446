"""The llm.npu engine: preparation stage + execution stage (§3.1).

``LlmNpuEngine`` wires the whole system together:

* **Preparation** (once per model/device): build the chunk-sharing graphs
  (§3.2), derive per-layer shadow profiles and the importance-based
  pruning set (§3.3), and size the hot-channel weight cache.
* **Execution** (per prompt): split the prompt into fixed chunks, lower
  them to a dependency task graph (Eqs. 2–3), schedule out-of-order with
  the max-C heuristic (§3.4) on the discrete-event simulator, then decode
  on the CPU (or GPU) backend.

The engine's feature switches (``chunking``, ``quant_mode``, ``policy``)
expose the ablation ladder of Fig. 19: naive NPU offload -> +chunk ->
+outlier -> +out-of-order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Union

from repro.core.decode import DecodeOptions, decode_latency_s
from repro.core.hot_channels import HotChannelPolicy, shadow_weight_bytes
from repro.core.pipeline import prepare_graph, run_prefill
from repro.core.residency import NpuResidencyPlan, plan_npu_residency
from repro.core.results import InferenceReport, PrefillReport
from repro.errors import EngineError
from repro.graph.builder import BuildOptions, GraphBuilder, ShadowProfile
from repro.hw.sim import FaultInjector
from repro.hw.soc import SocSpec, get_device
from repro.model.config import ModelConfig, get_model_config
from repro.model.synthetic import depth_factor

#: Fraction of channels that are outlier channels per inference —
#: the paper's Fig. 10 measurement (0.1%–0.3%; we use the upper end).
OUTLIER_CHANNEL_FRACTION = 0.003


@dataclass(frozen=True)
class EngineConfig:
    """Feature switches and tuning knobs for :class:`LlmNpuEngine`.

    Defaults are the paper's shipping configuration: chunk length 256,
    85% outlier pruning, CPU float backend, out-of-order scheduling.
    """

    chunk_len: int = 256
    max_chunks: int = 8
    pruning_rate: float = 0.85
    float_backend: str = "cpu"
    decode_backend: str = "cpu"
    policy: str = "ooo"
    chunking: bool = True
    quant_mode: str = "shadow"  # 'shadow' | 'per-group' | 'per-tensor'
    equivalent_shapes: bool = True
    group_size: int = 32
    hot_policy: HotChannelPolicy = field(default_factory=HotChannelPolicy)
    outlier_channels: Optional[int] = None
    #: Optional third processor for shadow MatMuls (e.g. attention on the
    #: GPU, shadow compensation on the CPU) — extension beyond the paper.
    shadow_backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.chunk_len <= 0 or self.max_chunks <= 0:
            raise EngineError("chunk_len and max_chunks must be positive")
        if not 0.0 <= self.pruning_rate <= 1.0:
            raise EngineError("pruning_rate must be in [0, 1]")
        if self.quant_mode not in ("shadow", "per-group", "per-tensor"):
            raise EngineError(f"unknown quant_mode {self.quant_mode!r}")
        if self.float_backend not in ("cpu", "gpu", "npu"):
            raise EngineError(
                "float_backend must be 'cpu', 'gpu' or 'npu'"
            )
        if self.decode_backend not in ("cpu", "gpu"):
            raise EngineError("decode_backend must be 'cpu' or 'gpu'")
        if self.shadow_backend is not None and self.shadow_backend not in (
                "cpu", "gpu", "npu"):
            raise EngineError(
                "shadow_backend must be 'cpu', 'gpu', 'npu' or None"
            )


class LlmNpuEngine:
    """llm.npu over the SoC simulator."""

    name = "llm.npu"

    def __init__(self, model: ModelConfig, device: SocSpec,
                 config: Optional[EngineConfig] = None,
                 fault_injector: Optional["FaultInjector"] = None,
                 tracer: Optional["Tracer"] = None):
        from repro.obs.tracer import as_tracer
        self.model = model
        self.device = device
        self.config = config if config is not None else EngineConfig()
        #: Optional deterministic fault source (see
        #: :class:`~repro.hw.sim.FaultInjector`).  ``infer`` consults it
        #: once per execution attempt; ``None`` means fault-free.
        self.fault_injector = fault_injector
        #: Engine-local tracer for direct (service-less) use: each
        #: ``infer`` appends prefill/decode spans to the ``engine``
        #: track on an internal clock that advances per call.  The
        #: service layer does NOT set this — it owns the service clock
        #: and emits request-scoped spans itself.
        self.tracer = as_tracer(tracer)
        self._trace_clock_s = 0.0
        cfg = self.config

        self.shadow_profiles = self._make_shadow_profiles()
        self._shadow_weight_bytes: Optional[int] = None
        self._prepare(BuildOptions(
            float_backend=cfg.float_backend,
            per_group=(cfg.quant_mode == "per-group"),
            group_size=cfg.group_size,
            equivalent_shapes=cfg.equivalent_shapes,
        ))

    # -- construction helpers -------------------------------------------------

    def _prepare(self, build_options: BuildOptions) -> None:
        """Bind the engine to the shared prepared graph for
        ``build_options`` (:func:`~repro.core.pipeline.prepare_graph`).

        ``builder`` stays per engine: the non-chunking path builds
        prompt-sized plans on it, and a service mirrors its cache
        counters into its own metrics registry.
        """
        cfg = self.config
        self.build_options = build_options
        self.builder = GraphBuilder(self.model, self.device, build_options)
        self._prepared = prepare_graph(
            self.model, self.device, build_options, cfg.chunk_len,
            cfg.max_chunks,
            self.shadow_profiles if cfg.quant_mode == "shadow" else None,
        )
        self.graph = self._prepared.graph

    @classmethod
    def build(cls, model: Union[str, ModelConfig],
              device: Union[str, SocSpec], **kwargs) -> "LlmNpuEngine":
        """Convenience constructor accepting names or spec objects."""
        if isinstance(model, str):
            model = get_model_config(model)
        if isinstance(device, str):
            device = get_device(device)
        fault_injector = kwargs.pop("fault_injector", None)
        tracer = kwargs.pop("tracer", None)
        config = kwargs.pop("config", None)
        if config is None:
            config = EngineConfig(**kwargs)
        elif kwargs:
            config = replace(config, **kwargs)
        return cls(model, device, config, fault_injector=fault_injector,
                   tracer=tracer)

    def _make_shadow_profiles(self) -> Dict[int, ShadowProfile]:
        """Per-layer shadow profiles from the paper's measured statistics.

        Outlier channel counts follow Fig. 10 (0.1–0.3% of channels); the
        pruning set follows Fig. 12's importance profile — the U-shaped
        depth curve means the middle layers are pruned first.
        """
        cfg = self.config
        n_layers = self.model.n_layers
        outliers = cfg.outlier_channels
        if outliers is None:
            outliers = max(2, int(round(
                self.model.hidden_size * OUTLIER_CHANNEL_FRACTION
            )))
        importance = {
            layer: depth_factor(layer, n_layers, "u")
            for layer in range(n_layers)
        }
        ranked = sorted(importance, key=lambda l: (importance[l], l))
        n_pruned = int(round(n_layers * cfg.pruning_rate))
        pruned = set(ranked[:n_pruned])
        avg_out = self.model.hidden_size  # typical column height
        return {
            layer: ShadowProfile(
                outlier_channels=outliers,
                pruned=layer in pruned,
                hot_hit_rate=(cfg.hot_policy.hit_rate
                              if cfg.hot_policy.enabled else 1.0),
                cold_bytes_per_miss=avg_out * 4,
            )
            for layer in range(n_layers)
        }

    # -- preparation -----------------------------------------------------------

    def preparation_s(self) -> float:
        """One-time preparation cost (graph build + optimize)."""
        if self.config.chunking:
            return self.graph.preparation_s()
        return 0.0  # the non-chunking variant pays per prompt instead

    # -- execution -------------------------------------------------------------

    def prefill(self, prompt_tokens: int,
                cached_tokens: int = 0) -> PrefillReport:
        """Simulate prefilling ``prompt_tokens`` new tokens.

        ``cached_tokens`` reuses an existing KV cache from earlier turns
        (multi-turn conversations); reuse is chunk-aligned because the
        graphs have static shapes (§3.2).
        """
        if prompt_tokens <= 0:
            raise EngineError("prompt_tokens must be positive")
        if cached_tokens < 0:
            raise EngineError("cached_tokens must be non-negative")
        cfg = self.config
        include_shadow = cfg.quant_mode == "shadow"
        if cfg.chunking:
            return self._prepared.prefill(
                prompt_tokens, cached_tokens,
                float_backend=cfg.float_backend,
                policy=cfg.policy,
                include_shadow=include_shadow,
                shadow_backend=cfg.shadow_backend,
            )
        # Fig. 7(a): one monolithic prompt graph, re-built and
        # re-optimized for this prompt length (the naive NPU baseline).
        rows = max(32, prompt_tokens)
        plans = [self.builder.build_chunk(
            0, rows,
            self.shadow_profiles if include_shadow else None,
        )]
        return run_prefill(
            plans, self.device, prompt_tokens,
            float_backend=cfg.float_backend,
            policy=cfg.policy,
            include_shadow=include_shadow,
            extra_latency_s=self.graph.naive_per_prompt_preparation_s(),
            shadow_backend=cfg.shadow_backend,
        )

    def decode(self, prompt_tokens: int, output_tokens: int) -> float:
        """Decode latency; ``prompt_tokens`` is the total KV length."""
        options = DecodeOptions(
            backend=self.config.decode_backend,
            per_group=(self.config.quant_mode == "per-group"),
            group_size=self.config.group_size,
        )
        proc = self.device.processors[self.config.decode_backend]
        return decode_latency_s(self.model, proc, prompt_tokens,
                                output_tokens, options,
                                self._prepared.decode_token_costs(options))

    def check_fault(self, now_s: float = 0.0) -> None:
        """Consume one fault draw for an execution attempt.

        Raises :class:`~repro.errors.TransientEngineError` or
        :class:`~repro.errors.PermanentEngineError` when the attached
        injector scripts a fault for this attempt; a no-op otherwise.
        ``now_s`` only timestamps the injector's trace event.
        """
        if self.fault_injector is not None:
            self.fault_injector.check(now_s=now_s)

    def infer(self, prompt_tokens: int,
              output_tokens: int = 0,
              cached_tokens: int = 0) -> InferenceReport:
        """Full prefill + decode with energy and memory accounting.

        With a :attr:`fault_injector` attached, each call is one
        execution attempt and may raise a typed engine error instead of
        returning a report.
        """
        self.check_fault(now_s=self._trace_clock_s)
        prefill = self.prefill(prompt_tokens, cached_tokens)
        total_context = cached_tokens + prompt_tokens
        decode_s = self.decode(total_context, output_tokens)

        energy_model = self.device.energy_model()
        prefill_busy = (prefill.facts.busy_by_processor
                        if prefill.facts is not None else {})
        busy = dict(prefill_busy)
        # During prefill the float backend plays a helper role (attention
        # GEMMs / shadow MatMuls / syncs: bandwidth-bound, few cores) and
        # draws a fraction of all-lanes power; decode runs the all-cores
        # GEMV engine at full power.
        helper = {
            self.config.float_backend: busy.get(
                self.config.float_backend, 0.0
            ),
        }
        busy[self.config.decode_backend] = (
            busy.get(self.config.decode_backend, 0.0) + decode_s
        )
        makespan = prefill.latency_s + decode_s
        energy = energy_model.energy(busy, makespan, helper_seconds=helper)

        prefill_energy = energy_model.energy(
            prefill_busy, prefill.latency_s,
            helper_seconds={
                self.config.float_backend: prefill_busy.get(
                    self.config.float_backend, 0.0
                ),
            },
        ).total_j

        if self.tracer.enabled:
            t0 = self._trace_clock_s
            thread = self.model.name
            prefill_end = t0 + prefill.latency_s
            self.tracer.span(
                "prefill", proc="engine", thread=thread, start_s=t0,
                end_s=prefill_end, cat="prefill",
                prompt_tokens=prompt_tokens, cached_tokens=cached_tokens,
                n_chunks=prefill.n_chunks,
                bubble_rate=prefill.npu_bubble_rate,
            )
            if decode_s > 0:
                self.tracer.span(
                    "decode", proc="engine", thread=thread,
                    start_s=prefill_end, end_s=prefill_end + decode_s,
                    cat="decode", output_tokens=output_tokens,
                )
            self._trace_clock_s = prefill_end + decode_s

        return InferenceReport(
            engine=self.name,
            model=self.model.name,
            device=self.device.name,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            prefill=prefill,
            decode_latency_s=decode_s,
            energy=energy,
            memory_bytes=self.memory_bytes(total_context + output_tokens),
            extras={"prefill_energy_j": prefill_energy,
                    "cached_tokens": float(cached_tokens)},
        )

    def profile_subgraphs(self, chunk_index: int = 0):
        """The offline per-subgraph latency profile (§3.4's preparation
        input: "llm.npu profiles all the subgraph execution time and their
        dependency offline").

        Returns a :class:`~repro.eval.report.Table` of every subgraph of
        the given chunk with its backend, latency and shareability.
        """
        from repro.eval.report import Table
        plan = self.graph.plan_for_chunk(chunk_index)
        table = Table(
            title=f"Subgraph profile — {self.model.name}, "
                  f"chunk {chunk_index} (kv={plan.kv_len})",
            columns=["subgraph", "backend", "latency ms", "static",
                     "weights MiB"],
        )
        for sg in plan.subgraphs:
            table.add_row(
                sg.name,
                "npu" if sg.is_npu else self.config.float_backend,
                sg.latency_s * 1e3,
                "yes" if sg.static else "no",
                sg.weight_bytes / 2**20,
            )
        table.add_note(
            f"NPU total {plan.npu_latency_s() * 1e3:.1f} ms, float total "
            f"{plan.float_latency_s() * 1e3:.1f} ms"
        )
        return table

    # -- accounting -------------------------------------------------------------

    def npu_residency(self) -> NpuResidencyPlan:
        """Which NPU subgraphs keep weights resident in the ~4 GB region.

        Models that exceed the region (e.g. LLaMA-2-7B at INT8) keep their
        FFN weights resident first (§4's rule) and stream the rest from
        DRAM per use — a cost the MatMul latency model's bandwidth term
        already charges.
        """
        return plan_npu_residency(
            self.model,
            self.device.npu_region_bytes,
            bytes_per_weight=self.build_options.weight_dtype.bytes,
        )

    def n_unpruned_layers(self) -> int:
        return sum(1 for p in self.shadow_profiles.values() if not p.pruned)

    def shadow_weight_bytes(self) -> int:
        """Resident float shadow weights (hot-channel cache, §3.3).

        Computed once per engine: it depends only on the model, the
        frozen config and ``shadow_profiles``, which only ``__init__``
        assigns.  Every :meth:`memory_bytes` call reads it.
        """
        if self._shadow_weight_bytes is None:
            self._shadow_weight_bytes = (
                0 if self.config.quant_mode != "shadow"
                else shadow_weight_bytes(self.model,
                                         self.n_unpruned_layers(),
                                         self.config.hot_policy))
        return self._shadow_weight_bytes

    def memory_bytes(self, total_tokens: int) -> int:
        """Peak memory: weights + graphs + KV cache + shadow weights."""
        plan = self._prepared.memory_plan(
            max(total_tokens, 1),
            shadow_weights_bytes=self.shadow_weight_bytes(),
        )
        return plan.total_bytes

    def validate_memory(self, total_tokens: int) -> "SocMemory":
        """Allocate the engine's footprint into the device's memory spaces.

        Raises :class:`~repro.errors.MemoryLimitError` if the device
        cannot hold the model (the check a real loader performs before
        committing to a configuration).  Returns the populated
        :class:`~repro.hw.memory.SocMemory` for inspection.
        """
        memory = self.device.memory()
        plan = self._prepared.memory_plan(
            max(total_tokens, 1),
            shadow_weights_bytes=self.shadow_weight_bytes())
        residency = self.npu_residency()
        # weights: all in DRAM; the resident subset also maps into the
        # NPU region; shadow float columns live in CPU space
        memory.dram.alloc("weights", plan.weights_bytes)
        memory.npu.alloc("weights.resident", residency.resident_bytes)
        memory.alloc_shared("shadow-weights", plan.shadow_weights_bytes,
                            spaces=[memory.cpu])
        # activations: static subgraph workspaces live in the NPU region
        # too (they are graph buffers); dynamic + KV stay in DRAM/CPU
        memory.dram.alloc("activations", plan.activation_bytes)
        memory.dram.alloc("kv-cache", plan.kv_cache_bytes)
        memory.cpu.alloc("kv-cache", plan.kv_cache_bytes)
        return memory
