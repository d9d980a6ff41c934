"""A small deterministic tokenizer used by the synthetic LLM substrate.

The real CacheGen operates on token sequences produced by the model's own
(BPE) tokenizer.  For the reproduction we only need a deterministic, roughly
word-level token count, so that prompt lengths in tokens track the paper's
datasets.  The implementation is a whitespace / punctuation splitter.
"""

from __future__ import annotations

import re

__all__ = ["SyntheticTokenizer"]

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class SyntheticTokenizer:
    """Deterministic word-level tokenizer: words and punctuation marks."""

    def count_tokens(self, text: str) -> int:
        """Number of tokens ``text`` splits into."""
        return len(_TOKEN_RE.findall(text))
