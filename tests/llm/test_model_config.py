"""Tests for model configurations and their KV-size accounting."""

from __future__ import annotations

import pytest

from repro.llm import LLAMA_34B, LLAMA_70B, MISTRAL_7B, MODELS, get_model_config


class TestLookup:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_get_by_name(self, name):
        assert get_model_config(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model_config("gpt-17")


class TestSizes:
    def test_kv_channels(self):
        assert MISTRAL_7B.kv_channels == 8 * 128

    def test_elements_per_token(self):
        assert MISTRAL_7B.kv_elements_per_token == 2 * 32 * 1024

    def test_bytes_per_token_fp16(self):
        assert MISTRAL_7B.kv_cache_bytes(1) == 2 * MISTRAL_7B.kv_elements_per_token

    def test_70b_larger_than_7b(self):
        assert LLAMA_70B.kv_cache_bytes(1) > MISTRAL_7B.kv_cache_bytes(1)

    def test_mistral_8bit_cache_matches_table1(self):
        """Table 1: the 8-bit quantized cache of a ~9.4K LongChat context is ~622 MB."""
        size_mb = MISTRAL_7B.kv_cache_bytes(9_400, bits_per_element=8) / 1e6
        assert 550 < size_mb < 700

    def test_llama34b_cache_matches_intro(self):
        """§3: an ~80K-token context on Llama-34B produces a KV cache of ~19 GB."""
        size_gb = LLAMA_34B.kv_cache_bytes(80_000, bits_per_element=16) / 1e9
        assert 10 < size_gb < 25

    @pytest.mark.parametrize("config", list(MODELS.values()), ids=lambda c: c.name)
    def test_cache_bytes_linear_in_tokens_and_bits(self, config):
        one = config.kv_cache_bytes(1, bits_per_element=8)
        assert config.kv_cache_bytes(0) == 0.0
        assert config.kv_cache_bytes(1_000, bits_per_element=8) == pytest.approx(1_000 * one)
        assert config.kv_cache_bytes(1_000, bits_per_element=16) == pytest.approx(2_000 * one)

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            MISTRAL_7B.kv_cache_bytes(-1)


class TestSimulationDims:
    @pytest.mark.parametrize("config", list(MODELS.values()), ids=lambda c: c.name)
    def test_sim_dims_positive(self, config):
        assert config.sim_layers > 0
        assert config.sim_channels > 0
        assert config.sim_layers <= config.num_layers

    @pytest.mark.parametrize("config", list(MODELS.values()), ids=lambda c: c.name)
    def test_sim_dims_no_larger_than_the_model(self, config):
        assert config.sim_channels <= config.kv_channels
        assert config.sim_layers == min(config.num_layers, 32)
