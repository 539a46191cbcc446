"""The llm.npu engine: chunked prefill, shadow outlier execution,
hot-channel caching, and out-of-order subgraph scheduling."""

from repro.core.decode import DecodeOptions, decode_latency_s, decode_token_s
from repro.core.dependency import (
    build_task_graph,
    count_cross_chunk_edges,
    shadow_id,
    sync_id,
    task_id,
)
from repro.core.engine import (
    OUTLIER_CHANNEL_FRACTION,
    EngineConfig,
    LlmNpuEngine,
)
from repro.core.hybrid import HybridEngine
from repro.core.hot_channels import (
    HotChannelPolicy,
    cache_saving_fraction,
    shadow_weight_bytes,
    shadow_weight_bytes_per_layer,
)
from repro.core.pipeline import run_prefill
from repro.core.residency import (
    NpuResidencyPlan,
    npu_weight_bytes_by_subgraph,
    plan_npu_residency,
)
from repro.core.results import (
    InferenceReport,
    PrefillReport,
    ServiceMetrics,
    TierStats,
    goodput_rps,
    summarize_service,
)
from repro.core.service import (
    BACKGROUND_TIER,
    DEFAULT_TIERS,
    FAULT_ATTEMPT_FRACTION,
    INTERACTIVE_TIER,
    ChatSession,
    LlmService,
    ServedRequest,
    ServiceRequest,
    ServiceStats,
    TierPolicy,
)
from repro.core.scheduler import (
    BatchConfig,
    ChunkContinuation,
    ChunkOrderPolicy,
    HeadOfLinePolicy,
    LatencyGreedyPolicy,
    NormalizedOooPolicy,
    OutOfOrderPolicy,
    RequestQueue,
    StepItem,
    StepRecord,
    get_policy,
    newly_ready_npu_time,
)

__all__ = [
    "LlmNpuEngine",
    "HybridEngine",
    "EngineConfig",
    "OUTLIER_CHANNEL_FRACTION",
    "InferenceReport",
    "PrefillReport",
    "LlmService",
    "ChatSession",
    "ServedRequest",
    "ServiceRequest",
    "ServiceStats",
    "ServiceMetrics",
    "TierStats",
    "summarize_service",
    "TierPolicy",
    "INTERACTIVE_TIER",
    "BACKGROUND_TIER",
    "DEFAULT_TIERS",
    "FAULT_ATTEMPT_FRACTION",
    "RequestQueue",
    "BatchConfig",
    "ChunkContinuation",
    "StepItem",
    "StepRecord",
    "goodput_rps",
    "NpuResidencyPlan",
    "plan_npu_residency",
    "npu_weight_bytes_by_subgraph",
    "run_prefill",
    "build_task_graph",
    "count_cross_chunk_edges",
    "task_id",
    "shadow_id",
    "sync_id",
    "OutOfOrderPolicy",
    "NormalizedOooPolicy",
    "ChunkOrderPolicy",
    "HeadOfLinePolicy",
    "LatencyGreedyPolicy",
    "get_policy",
    "newly_ready_npu_time",
    "DecodeOptions",
    "decode_latency_s",
    "decode_token_s",
    "HotChannelPolicy",
    "shadow_weight_bytes",
    "shadow_weight_bytes_per_layer",
    "cache_saving_fraction",
]
