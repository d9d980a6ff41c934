"""Tests for codec configuration objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DEFAULT_LEVELS, CacheGenConfig, EncodingLevel


class TestEncodingLevel:
    def test_defaults(self):
        level = EncodingLevel(name="x", delta_bins=(0.5, 1.0, 1.5))
        assert level.anchor_bits == 8

    @pytest.mark.parametrize("bins", [(), (0.0, 1.0), (-1.0,)])
    def test_invalid_bins(self, bins):
        with pytest.raises(ValueError):
            EncodingLevel(name="x", delta_bins=bins)

    @pytest.mark.parametrize("bits", [1, 10, 16, 17])
    def test_invalid_anchor_bits(self, bits):
        """From 10 bits the anchor symbols leave the ±255 alphabet no profile could fit."""
        with pytest.raises(ValueError, match="alphabet"):
            EncodingLevel(name="x", delta_bins=(1.0,), anchor_bits=bits)

    def test_default_levels_ordered_high_to_low(self):
        sizes = [sum(level.delta_bins) for level in DEFAULT_LEVELS]
        assert sizes == sorted(sizes)


class TestCacheGenConfig:
    def test_paper_defaults(self):
        config = CacheGenConfig()
        assert config.group_size == 10
        assert config.chunk_tokens == 1500
        assert config.default_level.delta_bins == (0.5, 1.0, 1.5)
        assert config.use_delta and config.use_layerwise_quant and config.use_arithmetic_coding
        assert config.probability_grouping == "channel_layer"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_size": 0},
            {"chunk_tokens": 0},
            {"levels": ()},
            {"default_level_index": 10},
            {"probability_grouping": "bogus"},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises((ValueError, IndexError)):
            CacheGenConfig(**kwargs)

    def test_duplicate_level_names_rejected(self):
        level = EncodingLevel(name="dup", delta_bins=(1.0,))
        with pytest.raises(ValueError):
            CacheGenConfig(levels=(level, level))

    @pytest.mark.parametrize("ref,expected", [(0, 0), ("medium", 1), ("lowest", 3)])
    def test_level_index(self, ref, expected):
        assert CacheGenConfig().level_index(ref) == expected

    def test_level_index_object(self):
        config = CacheGenConfig()
        assert config.level_index(config.levels[2]) == 2

    def test_level_index_unknown_name_or_level(self):
        config = CacheGenConfig()
        with pytest.raises(ValueError):
            config.level_index("nope")
        with pytest.raises(ValueError):
            config.level_index(EncodingLevel(name="elsewhere", delta_bins=(1.0,)))

    def test_default_level_follows_its_index(self):
        config = CacheGenConfig(default_level_index=2)
        assert config.default_level is config.levels[2]
        assert config.level_index(config.default_level) == 2

    def test_level_index_out_of_range(self):
        with pytest.raises(IndexError):
            CacheGenConfig().level_index(9)

    def test_level_index_takes_any_integer_type(self):
        """``np.int64(1)`` used to raise ``ValueError: np.int64(1) is not in list``."""
        config = CacheGenConfig()
        assert config.level_index(np.int64(1)) == 1
        with pytest.raises(IndexError):
            config.level_index(np.int64(9))

    @pytest.mark.parametrize("flag", [True, False])
    def test_level_index_refuses_a_bool(self, flag):
        """``True`` used to resolve to level 1, so ``encode(kv, True)`` coded at "medium"."""
        with pytest.raises(TypeError, match="not a bool"):
            CacheGenConfig().level_index(flag)

    def test_replace(self):
        config = CacheGenConfig().replace(chunk_tokens=512, use_delta=False)
        assert config.chunk_tokens == 512
        assert not config.use_delta
        assert CacheGenConfig().chunk_tokens == 1500
