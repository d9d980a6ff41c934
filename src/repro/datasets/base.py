"""Dataset abstractions for the evaluation workloads.

The paper evaluates on 662 long contexts drawn from four datasets (Table 2):
LongChat, TriviaQA, NarrativeQA and WikiText, with context lengths between
1.4K and 16K tokens.  The corpora themselves are not redistributable here, so
each dataset is represented by a synthetic generator that reproduces the
statistics that matter to the evaluation: the number of contexts, the context
length distribution (median / std / P95 from Table 2), the task type and its
quality metric, and the base quality a lossless KV cache achieves per model.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..metrics.stats import percentiles

__all__ = ["ContextRecord", "SyntheticDataset"]

#: Context length bounds reported for the whole evaluation corpus.
MIN_CONTEXT_TOKENS = 1_400
MAX_CONTEXT_TOKENS = 16_000


@dataclass(frozen=True)
class ContextRecord:
    """One long-context record of a dataset.

    Attributes
    ----------
    context_id:
        Stable identifier ("<dataset>-<index>"); it seeds the synthetic KV
        generation, so the same record always produces the same cache.
    num_tokens:
        Context length in tokens.
    prompt_tokens:
        Length of the user query appended after the context.
    task:
        Quality-model task name (``qa_accuracy``, ``qa_f1``, ``perplexity``).
    question:
        A human-readable placeholder query (used by the examples).
    """

    context_id: str
    num_tokens: int
    prompt_tokens: int
    task: str
    question: str


class SyntheticDataset:
    """Base class for the synthetic dataset generators.

    Subclasses configure the name, size, task, length distribution and the
    per-model base quality; this class draws the deterministic records.
    """

    name: str = "base"
    task: str = "qa_accuracy"
    size: int = 0
    #: (median, std) of the context length distribution, from Table 2.
    length_median: int = 0
    length_std: int = 0
    #: Default question template for the examples.
    question_template: str = "What is the answer based on the provided context?"
    #: Base (lossless-cache) quality per model name; ``None`` entries fall
    #: back to ``default_base_quality``.
    base_quality_by_model: Mapping[str, float] = {}
    default_base_quality: float = 1.0
    prompt_tokens: int = 48

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # ----------------------------------------------------------------- records
    def records(self, limit: int | None = None) -> list[ContextRecord]:
        """Deterministically generate the dataset's context records."""
        count = self.size if limit is None else min(limit, self.size)
        # zlib.crc32 keeps the per-dataset seed stable across processes
        # (Python's built-in str hash is randomised per interpreter run).
        name_seed = zlib.crc32(self.name.encode("utf-8"))
        rng = np.random.default_rng(self.seed + name_seed)
        lengths = self._sample_lengths(rng, self.size)[:count]
        return [
            ContextRecord(
                context_id=f"{self.name}-{index}",
                num_tokens=int(length),
                prompt_tokens=self.prompt_tokens,
                task=self.task,
                question=self.question_template,
            )
            for index, length in enumerate(lengths)
        ]

    # ------------------------------------------------------------------ lengths
    def _sample_lengths(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Sample context lengths matching the Table 2 statistics."""
        lengths = rng.normal(self.length_median, self.length_std, size=count)
        return np.clip(np.round(lengths), MIN_CONTEXT_TOKENS, MAX_CONTEXT_TOKENS).astype(int)

    # ------------------------------------------------------------------ quality
    def base_quality_for(self, model_name: str) -> float:
        """Lossless-cache quality of ``model_name`` on this dataset."""
        return float(self.base_quality_by_model.get(model_name, self.default_base_quality))

    # ------------------------------------------------------------------ summary
    def length_statistics(self, limit: int | None = None) -> dict[str, float]:
        """Size / median / std / P95 of the generated context lengths (Table 2)."""
        lengths = np.array([record.num_tokens for record in self.records(limit)])
        median, p95 = percentiles(lengths, (50.0, 95.0))
        return {
            "size": int(len(lengths)),
            "median": median,
            "std": float(np.std(lengths)),
            "p95": p95,
        }
