"""Tests for the synthetic dataset generators (Table 2)."""

from __future__ import annotations

import pytest

from repro.datasets import (
    ALL_DATASETS,
    LongChatDataset,
    MAX_CONTEXT_TOKENS,
    MIN_CONTEXT_TOKENS,
    NarrativeQADataset,
    TriviaQADataset,
    WikiTextDataset,
    get_dataset,
)

EXPECTED_STATS = {
    "longchat": {"size": 200, "median": 9_400, "task": "qa_accuracy"},
    "triviaqa": {"size": 200, "median": 9_300, "task": "qa_f1"},
    "narrativeqa": {"size": 200, "median": 14_000, "task": "qa_f1"},
    "wikitext": {"size": 62, "median": 5_900, "task": "perplexity"},
}


class TestFactory:
    @pytest.mark.parametrize("name", sorted(ALL_DATASETS))
    def test_get_dataset(self, name):
        assert get_dataset(name).name == name

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            get_dataset("imagenet")


@pytest.mark.parametrize("name", sorted(ALL_DATASETS))
class TestTable2Statistics:
    def test_size_matches(self, name):
        assert get_dataset(name).size == EXPECTED_STATS[name]["size"]

    def test_median_close_to_paper(self, name):
        stats = get_dataset(name).length_statistics()
        expected = EXPECTED_STATS[name]["median"]
        assert abs(stats["median"] - expected) / expected < 0.12

    def test_lengths_within_corpus_bounds(self, name):
        for record in get_dataset(name).records():
            assert MIN_CONTEXT_TOKENS <= record.num_tokens <= MAX_CONTEXT_TOKENS

    def test_task_assignment(self, name):
        dataset = get_dataset(name)
        assert dataset.task == EXPECTED_STATS[name]["task"]
        assert all(record.task == dataset.task for record in dataset.records(5))


class TestRecords:
    def test_deterministic_across_instances(self):
        a = [r.num_tokens for r in LongChatDataset().records(20)]
        b = [r.num_tokens for r in LongChatDataset().records(20)]
        assert a == b

    def test_limit_respected(self):
        assert len(TriviaQADataset().records(7)) == 7

    def test_limit_beyond_size_returns_every_record(self):
        dataset = LongChatDataset()
        assert len(dataset.records(dataset.size + 10)) == dataset.size

    def test_a_limit_is_a_prefix_of_the_whole_dataset(self):
        dataset = NarrativeQADataset()
        assert dataset.records(5) == dataset.records()[:5]

    def test_seed_changes_the_lengths(self):
        a = [r.num_tokens for r in TriviaQADataset(seed=0).records(20)]
        b = [r.num_tokens for r in TriviaQADataset(seed=1).records(20)]
        assert a != b

    def test_statistics_of_a_limited_draw(self):
        stats = WikiTextDataset().length_statistics(limit=10)
        assert stats["size"] == 10
        assert stats["median"] <= stats["p95"]

    def test_context_ids_unique(self):
        ids = [r.context_id for r in NarrativeQADataset().records(50)]
        assert len(set(ids)) == 50

    def test_longchat_tightly_clustered(self):
        stats = LongChatDataset().length_statistics()
        assert stats["std"] < 400

    def test_triviaqa_wide_spread(self):
        stats = TriviaQADataset().length_statistics()
        assert stats["std"] > 2_000

    def test_base_quality_known_and_default_models(self):
        dataset = WikiTextDataset()
        assert dataset.base_quality_for("llama-70b") < dataset.base_quality_for("llama-3b")
        assert dataset.base_quality_for("unknown-model") == dataset.default_base_quality
