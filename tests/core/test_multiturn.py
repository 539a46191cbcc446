"""Tests for multi-turn KV-cache reuse and TTFT/TPOT metrics."""

import pytest

from repro.core import ChatSession, LlmNpuEngine, LlmService
from repro.errors import EngineError, GraphError


@pytest.fixture(scope="module")
def engine():
    return LlmNpuEngine.build("Qwen1.5-1.8B", "Redmi K70 Pro")


class TestCachedPrefill:
    def test_aligned_reuse_skips_chunks(self, engine):
        cold = engine.prefill(812)
        warm = engine.prefill(300, cached_tokens=512)
        assert cold.n_chunks == 4
        assert warm.n_chunks == 2
        assert warm.latency_s < cold.latency_s

    def test_unaligned_cache_repays_partial_chunk(self, engine):
        # 300 cached tokens: one full chunk (256) reused, 44 re-prefilled
        warm = engine.prefill(300, cached_tokens=300)
        # 44 + 300 = 344 new+remainder -> 2 chunks starting at index 1
        assert warm.n_chunks == 2

    def test_fully_aligned_vs_unaligned(self, engine):
        aligned = engine.prefill(256, cached_tokens=512)
        unaligned = engine.prefill(256, cached_tokens=511)
        assert aligned.n_chunks == 1
        assert unaligned.n_chunks == 2
        assert unaligned.latency_s > aligned.latency_s

    def test_reuse_beyond_capacity_raises(self, engine):
        max_tokens = engine.graph.max_chunks * engine.config.chunk_len
        with pytest.raises(GraphError):
            engine.prefill(512, cached_tokens=max_tokens)

    def test_negative_cached_raises(self, engine):
        with pytest.raises(EngineError):
            engine.prefill(256, cached_tokens=-1)

    def test_warm_prefill_slower_than_first_chunks(self, engine):
        # chunks reused are the *early* (cheap-attention) ones; the turn
        # still pays the late chunks' longer attention spans
        early = engine.prefill(512)  # chunks 0-1
        late = engine.prefill(512, cached_tokens=512)  # chunks 2-3
        assert late.latency_s > early.latency_s


class TestInferWithCache:
    def test_decode_sees_full_context(self, engine):
        short_ctx = engine.infer(256, 4)
        long_ctx = engine.infer(256, 4, cached_tokens=1024)
        assert long_ctx.decode_latency_s > short_ctx.decode_latency_s

    def test_extras_record_cache(self, engine):
        report = engine.infer(256, 2, cached_tokens=512)
        assert report.extras["cached_tokens"] == 512.0


class TestMetrics:
    def test_ttft_is_prefill(self, engine):
        report = engine.infer(512, 8)
        assert report.ttft_s == report.prefill_latency_s

    def test_tpot(self, engine):
        report = engine.infer(512, 8)
        assert report.tpot_s == pytest.approx(
            report.decode_latency_s / 8
        )

    def test_tpot_zero_without_decode(self, engine):
        assert engine.infer(512, 0).tpot_s == 0.0


class TestChatSession:
    def test_context_accumulates(self):
        service = LlmService("Redmi K70 Pro")
        chat = service.open_chat("Qwen1.5-1.8B")
        chat.submit_turn(500, 40)
        assert chat.context_tokens == 540
        chat.submit_turn(60, 35)
        assert chat.context_tokens == 635
        assert chat.n_turns == 2

    def test_later_turns_prefill_faster(self):
        service = LlmService("Redmi K70 Pro")
        chat = service.open_chat("Qwen1.5-1.8B")
        first = chat.submit_turn(520, 0)
        second = chat.submit_turn(60, 0)
        assert second.report.ttft_s < first.report.ttft_s

    def test_turn_records_cached_tokens(self):
        service = LlmService("Redmi K70 Pro")
        chat = service.open_chat("Qwen1.5-1.8B")
        chat.submit_turn(300, 10)
        second = chat.submit_turn(50, 0)
        assert second.report.extras["cached_tokens"] == 310.0

    def test_empty_turn_rejected(self):
        service = LlmService("Redmi K70 Pro")
        chat = service.open_chat("Qwen1.5-1.8B")
        with pytest.raises(EngineError):
            chat.submit_turn(0)

    def test_turns_share_service_clock(self):
        service = LlmService("Redmi K70 Pro")
        chat = service.open_chat("Qwen1.5-1.8B")
        first = chat.submit_turn(300, 2)
        second = chat.submit_turn(60, 2)
        assert second.start_s >= first.finish_s


class TestTimelineAndProfiling:
    def test_timeline_contains_prefill_and_decode(self, engine):
        report = engine.infer(512, 4)
        timeline = report.timeline()
        tags = {e.tag for e in timeline.events}
        assert "decode" in tags
        assert any(t.startswith("sg") for t in tags)
        decode_events = [e for e in timeline.events if e.tag == "decode"]
        assert len(decode_events) == 4
        # decode strictly follows prefill
        prefill_end = report.prefill.trace.makespan_s
        assert all(e.start_s >= prefill_end - 1e-9 for e in decode_events)

    def test_timeline_without_decode(self, engine):
        timeline = engine.infer(256, 0).timeline()
        assert not any(e.tag == "decode" for e in timeline.events)

    def test_timeline_exports_to_chrome(self, engine, tmp_path):
        import json
        import os
        from repro.obs import Tracer, add_trace_spans, save_chrome_trace
        path = os.path.join(tmp_path, "timeline.json")
        tracer = Tracer()
        add_trace_spans(tracer, engine.infer(256, 2).timeline(), "hw")
        save_chrome_trace(path, tracer)
        with open(path) as f:
            events = json.load(f)
        assert any(e.get("cat") == "decode" for e in events)

    def test_subgraph_profile_table(self, engine):
        table = engine.profile_subgraphs(0)
        assert len(table.rows) == engine.model.n_layers * 6
        backends = set(table.column("backend"))
        assert backends == {"npu", "cpu"}
        # NPU rows carry weights, float rows don't
        for row in table.rows:
            if row[1] == "npu":
                assert row[4] > 0
            else:
                assert row[4] == 0
