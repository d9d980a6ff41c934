"""Tests for the end-to-end context-loading engine."""

from __future__ import annotations

import pytest

from repro.serving.engine import ContextLoadingEngine


@pytest.fixture(scope="module")
def engine():
    return ContextLoadingEngine("mistral-7b")


@pytest.fixture(scope="module")
def ingested(engine):
    return engine.ingest("report-2023", 2_200)


class TestIngest:
    def test_report_contents(self, ingested):
        assert ingested.context_id == "report-2023"
        assert ingested.num_chunks == 2
        assert set(ingested.stored_bytes_per_level) == {"high", "medium", "low", "lowest"}
        assert ingested.total_stored_bytes > 0

    def test_context_is_stored(self, engine, ingested):
        assert "report-2023" in engine.store


class TestQuery:
    def test_query_uses_kv_cache(self, engine, ingested):
        response = engine.query("report-2023", "Summarise the revenue drivers.")
        assert response.used_kv_cache
        assert response.ttft_s > 0
        assert response.quality.relative_quality > 0.95
        assert response.transmitted_bytes > 0

    def test_query_not_ingested_falls_back_to_text(self, engine):
        response = engine.query("unknown-doc", "What is this?", num_tokens=1_500)
        assert not response.used_kv_cache
        assert response.chunk_configs == ["text"]

    def test_query_unknown_without_length_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.query("unknown-doc-2", "What is this?")

    def test_query_with_slo(self, engine, ingested):
        response = engine.query("report-2023", "Any risks mentioned?", slo_s=2.0)
        assert response.ttft_s > 0
        assert response.used_kv_cache

    def test_kv_path_faster_than_text_path(self, engine, ingested):
        kv_response = engine.query("report-2023", "Summarise.")
        text_response = engine.query("fresh-doc", "Summarise.", num_tokens=2_200)
        assert kv_response.ttft_s < text_response.ttft_s

    def test_accepts_model_config_instance(self):
        from repro.llm import MISTRAL_7B

        engine = ContextLoadingEngine(MISTRAL_7B)
        assert engine.model is MISTRAL_7B


class TestReferenceMemoization:
    def test_reference_kv_computed_once_per_context(self, monkeypatch):
        engine = ContextLoadingEngine("mistral-7b")
        calls: list[str] = []
        original = engine.llm.calculate_kv

        def counting(context_id: str, num_tokens: int):
            calls.append(context_id)
            return original(context_id, num_tokens)

        monkeypatch.setattr(engine.llm, "calculate_kv", counting)
        engine.ingest("memo-doc", 2_200)
        assert calls.count("memo-doc") == 1
        engine.query("memo-doc", "First question?")
        engine.query("memo-doc", "Second question?")
        # Repeated queries reuse the reference computed at ingest instead of
        # re-prefilling the whole context every time.
        assert calls.count("memo-doc") == 1
