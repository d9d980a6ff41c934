"""Tests for the tokenizer and the attention-based token selection helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm import SyntheticTokenizer, coverage_of, select_heavy_hitters, select_uniform


class TestTokenizer:
    def test_counts_words_and_punctuation(self):
        assert SyntheticTokenizer().count_tokens("Hello, world! This is CacheGen.") == 8

    @pytest.mark.parametrize(
        "text,expected",
        [("", 0), ("   \n\t ", 0), ("one", 1), ("don't", 3), ("a-b c_d", 4), ("...", 3)],
    )
    def test_words_and_punctuation_marks(self, text, expected):
        assert SyntheticTokenizer().count_tokens(text) == expected


class TestTokenSelection:
    @pytest.fixture()
    def scores(self, rng):
        return rng.pareto(1.0, size=1000) + 0.01

    def test_heavy_hitters_respect_budget(self, scores):
        selection = select_heavy_hitters(scores, keep_fraction=0.3)
        assert selection.num_kept == pytest.approx(300, abs=2)
        assert selection.keep_fraction == pytest.approx(0.3, abs=0.01)

    def test_heavy_hitters_cover_more_than_uniform(self, scores):
        heavy = select_heavy_hitters(scores, keep_fraction=0.3)
        uniform = select_uniform(scores, keep_fraction=0.3, seed=1)
        assert heavy.attention_coverage > uniform.attention_coverage

    def test_heavy_hitters_include_recent_tokens(self, scores):
        selection = select_heavy_hitters(scores, keep_fraction=0.2, recent_window_fraction=0.5)
        recent = np.arange(len(scores) - 10, len(scores))
        assert np.isin(recent, selection.kept_positions).all()

    def test_positions_sorted_and_unique(self, scores):
        selection = select_heavy_hitters(scores, keep_fraction=0.4)
        positions = selection.kept_positions
        assert np.all(np.diff(positions) > 0)

    def test_uniform_coverage_close_to_keep_fraction(self, rng):
        scores = rng.uniform(0.5, 1.5, size=5000)
        selection = select_uniform(scores, keep_fraction=0.5, seed=3)
        assert selection.attention_coverage == pytest.approx(0.5, abs=0.05)

    def test_keep_everything(self, scores):
        selection = select_heavy_hitters(scores, keep_fraction=1.0)
        assert selection.num_kept == len(scores)
        assert selection.attention_coverage == pytest.approx(1.0)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_invalid_fraction(self, scores, fraction):
        with pytest.raises(ValueError):
            select_heavy_hitters(scores, fraction)

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            select_heavy_hitters(np.array([-1.0, 2.0]), 0.5)

    def test_coverage_of(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        assert coverage_of(scores, np.array([2, 3])) == pytest.approx(0.7)
