"""Chunk-sharing graph construction and accounting (§3.2).

Three strategies for handling variable-length prompts on a static-shape
NPU, mirroring Figure 7:

* **prompt graph** — one graph per prompt length, re-built and re-optimized
  for every request (the naive baseline; costs tens of seconds);
* **chunk graphs** — pre-built fixed-length chunk graphs, one complete
  graph per chunk position (fast, but memory scales with the number of
  chunk positions because every subgraph is duplicated);
* **chunk-sharing graph** — static subgraphs built once and shared across
  chunk positions; only the dynamic (attention) subgraphs are
  per-position.  This is llm.npu's design: for Qwen1.5-1.8B it shares 120
  of 144 subgraphs and cuts graph memory by up to 75%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import GraphError
from repro.graph.builder import ChunkPlan, GraphBuilder
from repro.graph.ops import DYNAMIC_POSITIONS, SUBGRAPHS_PER_BLOCK


def n_chunks_for(prompt_len: int, chunk_len: int) -> int:
    """Number of fixed-size chunks covering a prompt (last one padded)."""
    if prompt_len <= 0 or chunk_len <= 0:
        raise GraphError(
            f"invalid prompt/chunk length {prompt_len}/{chunk_len}"
        )
    return math.ceil(prompt_len / chunk_len)


def padded_tokens(prompt_len: int, chunk_len: int) -> int:
    """Wasted (padding) token slots for the final partial chunk."""
    return n_chunks_for(prompt_len, chunk_len) * chunk_len - prompt_len


def chunk_token_lengths(prompt_len: int, chunk_len: int,
                        cached_tokens: int = 0) -> List[int]:
    """New-token count attributed to each chunk pass of a prefill.

    This is the token-accounting twin of :meth:`ChunkSharingGraph.
    plans_for_prompt`: entry ``i`` is how many of the prompt's *new*
    tokens chunk pass ``i`` processes (padding slots are excluded — the
    list always sums to ``prompt_len`` exactly, which is the
    conservation invariant the step-loop batcher relies on).  With
    ``cached_tokens`` from earlier turns, a partial trailing cache
    chunk is re-prefilled together with the first new tokens, so the
    first entry is shortened by the cache remainder.

    Edge cases the batcher feeds through here: a prompt shorter than
    one chunk (one entry, the prompt itself), a prompt that is an exact
    multiple of the chunk length (all entries equal ``chunk_len``), and
    a single-token tail chunk (last entry 1).
    """
    if prompt_len <= 0 or chunk_len <= 0:
        raise GraphError(
            f"invalid prompt/chunk length {prompt_len}/{chunk_len}"
        )
    if cached_tokens < 0:
        raise GraphError(f"negative cached_tokens {cached_tokens}")
    remainder = cached_tokens % chunk_len
    lengths = [min(prompt_len, chunk_len - remainder)]
    left = prompt_len - lengths[0]
    while left > 0:
        take = min(chunk_len, left)
        lengths.append(take)
        left -= take
    return lengths


@dataclass(frozen=True)
class SharingStats:
    """Shared-vs-dynamic subgraph accounting for a max chunk count."""

    n_layers: int
    max_chunks: int
    shared_subgraphs: int
    dynamic_subgraphs: int

    @property
    def total_subgraph_instances(self) -> int:
        """Graph instances kept in memory under chunk-sharing."""
        return self.shared_subgraphs + self.dynamic_subgraphs

    @property
    def naive_subgraph_instances(self) -> int:
        """Graph instances if every chunk position had a full copy."""
        return self.n_layers * SUBGRAPHS_PER_BLOCK * self.max_chunks

    @property
    def shared_fraction(self) -> float:
        per_prompt = self.n_layers * SUBGRAPHS_PER_BLOCK
        return self.shared_subgraphs / per_prompt


class ChunkSharingGraph:
    """Pre-built chunk-sharing graph set for a (model, device) pair.

    ``max_chunks`` bounds the supported prompt length
    (``max_chunks * chunk_len`` tokens); dynamic attention subgraphs exist
    per chunk position, static subgraphs exist once: every chunk plan
    holds the same static subgraph and shadow spec objects.
    """

    def __init__(self, builder: GraphBuilder, chunk_len: int,
                 max_chunks: int,
                 shadow_profiles: Optional[Dict] = None):
        if max_chunks <= 0:
            raise GraphError(f"max_chunks must be positive, got {max_chunks}")
        self.builder = builder
        self.chunk_len = chunk_len
        self.max_chunks = max_chunks
        self.shadow_profiles = shadow_profiles
        base = builder.build_chunk(0, chunk_len, shadow_profiles)
        self._plans: List[ChunkPlan] = [base] + [
            builder.share_chunk(base, i) for i in range(1, max_chunks)
        ]

    def plan_for_chunk(self, chunk_index: int) -> ChunkPlan:
        if not 0 <= chunk_index < self.max_chunks:
            raise GraphError(
                f"chunk {chunk_index} beyond max_chunks {self.max_chunks}"
            )
        return self._plans[chunk_index]

    def plans_for_prompt(self, prompt_len: int,
                         cached_tokens: int = 0) -> List[ChunkPlan]:
        """The chunk plans needed to prefill ``prompt_len`` new tokens.

        ``cached_tokens`` is the KV-cache length already established by
        earlier turns.  Static shapes force chunk-aligned reuse: only the
        fully-populated cache chunks are skipped; a partial trailing chunk
        must be re-prefilled together with the new tokens (its graph slot
        processes full chunks only).
        """
        if cached_tokens < 0:
            raise GraphError(f"negative cached_tokens {cached_tokens}")
        reused_chunks = cached_tokens // self.chunk_len
        remainder = cached_tokens - reused_chunks * self.chunk_len
        n = n_chunks_for(prompt_len + remainder, self.chunk_len)
        if reused_chunks + n > self.max_chunks:
            raise GraphError(
                f"prompt of {prompt_len} tokens on {cached_tokens} cached "
                f"needs chunks {reused_chunks}..{reused_chunks + n - 1}; "
                f"graph was prepared for {self.max_chunks}"
            )
        return self._plans[reused_chunks: reused_chunks + n]

    # -- sharing accounting -------------------------------------------------

    def sharing_stats(self) -> SharingStats:
        n_layers = self.builder.config.n_layers
        static_per_prompt = n_layers * (SUBGRAPHS_PER_BLOCK
                                        - len(DYNAMIC_POSITIONS))
        dynamic = n_layers * len(DYNAMIC_POSITIONS) * self.max_chunks
        return SharingStats(
            n_layers=n_layers,
            max_chunks=self.max_chunks,
            shared_subgraphs=static_per_prompt,
            dynamic_subgraphs=dynamic,
        )

    # -- preparation cost -----------------------------------------------------

    def preparation_s(self) -> float:
        """One-time build+optimize cost of all graphs (preparation stage).

        Static subgraphs are built once; each dynamic subgraph per chunk
        position is built separately (they are small — attention has no
        weights, so their graphs are just activation plumbing).
        """
        cost = self.builder.device.graph_cost
        plan0 = self._plans[0]
        static_ops = sum(s.op_count() for s in plan0.subgraphs if s.static)
        dynamic_ops = sum(
            s.op_count() for s in plan0.subgraphs if not s.static
        )
        total = cost.prepare_s(max(static_ops, 1))
        for _ in range(self.max_chunks):
            total += (cost.build_s(max(dynamic_ops, 1))
                      + cost.optimize_s(max(dynamic_ops, 1)))
        return total

    def naive_per_prompt_preparation_s(self) -> float:
        """Re-build + re-optimize cost a naive engine pays per prompt."""
        cost = self.builder.device.graph_cost
        plan0 = self._plans[0]
        all_ops = sum(s.op_count() for s in plan0.subgraphs)
        return cost.prepare_s(all_ops)
