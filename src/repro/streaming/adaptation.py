"""CacheGen's bandwidth-adaptation logic (Algorithm 1, §5.3 / §C.1).

Before sending each context chunk, the adapter estimates the available
throughput from the previous chunk's measured throughput, computes the time
remaining until the TTFT service-level objective (SLO), and picks the
*streaming configuration* for the next chunk:

* send the chunk's KV bitstream at one of the encoding levels, or
* fall back to sending the chunk as text and let the LLM recompute its KV.

Following Algorithm 1, feasibility is evaluated over *all remaining chunks*:
a configuration is feasible if finishing the remaining work with it fits in
the remaining time.  Among feasible configurations the one with the least
compression loss wins (text has none, then the encoding levels from highest
to lowest quality); if nothing fits, the smallest representation is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from .chunking import PreparedChunk

__all__ = [
    "StreamDecision",
    "AdaptationPolicy",
    "SLOAwareAdapter",
    "FixedLevelPolicy",
    "TEXT_CONFIG",
    "choose_policy",
]

#: Sentinel configuration name for the text / recompute fallback.
TEXT_CONFIG = "text"


@dataclass(frozen=True)
class StreamDecision:
    """Configuration chosen for one chunk."""

    config: str
    expected_delay_s: float
    feasible: bool

    @property
    def is_text(self) -> bool:
        return self.config == TEXT_CONFIG


class AdaptationPolicy(Protocol):
    """Interface of per-chunk configuration policies."""

    def decide(
        self,
        remaining_chunks: Sequence[PreparedChunk],
        throughput_bps: float,
        remaining_time_s: float,
        recompute_time_s: float,
        concurrency: int = 1,
    ) -> StreamDecision:
        """Choose the configuration for ``remaining_chunks[0]``."""
        ...


@dataclass
class FixedLevelPolicy:
    """Always stream at one encoding level (the "CacheGen w/o adaptation" baseline)."""

    level_name: str

    def decide(
        self,
        remaining_chunks: Sequence[PreparedChunk],
        throughput_bps: float,
        remaining_time_s: float,
        recompute_time_s: float,
        concurrency: int = 1,
    ) -> StreamDecision:
        if not remaining_chunks:
            raise ValueError("no chunks remaining")
        next_chunk = remaining_chunks[0]
        expected = concurrency * next_chunk.bytes_for_level(self.level_name) * 8.0 / throughput_bps
        return StreamDecision(
            config=self.level_name, expected_delay_s=expected, feasible=expected <= remaining_time_s
        )


@dataclass
class SLOAwareAdapter:
    """Algorithm 1: SLO-aware per-chunk configuration selection.

    Parameters
    ----------
    level_names:
        Encoding level names ordered from highest quality (largest) to lowest
        quality (smallest), matching the encoder configuration.
    allow_text_fallback:
        Whether the text / recompute configuration is a candidate.

    Example
    -------
    >>> adapter = SLOAwareAdapter(["high", "medium", "low"])
    >>> adapter.decide(chunks, next_index=0, throughput_bps=gbps(1.0),
    ...                elapsed_s=0.2, slo_s=1.0)  # doctest: +SKIP
    """

    level_names: Sequence[str]
    allow_text_fallback: bool = True

    def decide(
        self,
        remaining_chunks: Sequence[PreparedChunk],
        throughput_bps: float,
        remaining_time_s: float,
        recompute_time_s: float,
        concurrency: int = 1,
    ) -> StreamDecision:
        """Pick the least-lossy configuration that still meets the SLO.

        Parameters
        ----------
        remaining_chunks:
            Chunks not yet sent; the decision applies to the first one.
        throughput_bps:
            Throughput measured for the previous chunk (assumed to persist).
        remaining_time_s:
            ``SLO - time_elapsed``.
        recompute_time_s:
            Prefill time for *all remaining* chunk tokens if sent as text.
        concurrency:
            Number of concurrent requests sharing the link for this chunk
            index (``N_c`` in §5.3); expected delays scale by it.
        """
        if not remaining_chunks:
            raise ValueError("no chunks remaining")
        if throughput_bps <= 0:
            raise ValueError("throughput must be positive")
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")

        # Text / recompute: zero compression loss, bounded by GPU speed.
        if self.allow_text_fallback and recompute_time_s <= remaining_time_s:
            next_chunk = remaining_chunks[0]
            per_chunk_recompute = recompute_time_s * (
                next_chunk.num_tokens / max(sum(c.num_tokens for c in remaining_chunks), 1)
            )
            return StreamDecision(
                config=TEXT_CONFIG, expected_delay_s=per_chunk_recompute, feasible=True
            )

        # Otherwise the highest (least lossy) level whose remaining transfer
        # fits in the remaining time.
        fallback: StreamDecision | None = None
        for level_name in self.level_names:
            total_bytes = sum(chunk.bytes_for_level(level_name) for chunk in remaining_chunks)
            expected_total = concurrency * total_bytes * 8.0 / throughput_bps
            next_bytes = remaining_chunks[0].bytes_for_level(level_name)
            expected_next = concurrency * next_bytes * 8.0 / throughput_bps
            decision = StreamDecision(
                config=level_name,
                expected_delay_s=expected_next,
                feasible=expected_total <= remaining_time_s,
            )
            if decision.feasible:
                return decision
            fallback = decision

        # Nothing fits: send the smallest representation of the next chunk.
        assert fallback is not None
        if self.allow_text_fallback and recompute_time_s < (
            sum(c.bytes_for_level(self.level_names[-1]) for c in remaining_chunks)
            * 8.0
            * concurrency
            / throughput_bps
        ):
            next_chunk = remaining_chunks[0]
            per_chunk_recompute = recompute_time_s * (
                next_chunk.num_tokens / max(sum(c.num_tokens for c in remaining_chunks), 1)
            )
            return StreamDecision(
                config=TEXT_CONFIG, expected_delay_s=per_chunk_recompute, feasible=False
            )
        return fallback


def choose_policy(
    level_names: Sequence[str], slo_s: float | None, fixed_level: str, adaptive: bool = True
) -> AdaptationPolicy:
    """The policy of one KV load: SLO-aware when adapting against an SLO, else ``fixed_level``.

    Adaptation only has a deadline to work against when an SLO is set
    (Figures 7 and 13); without one every chunk streams at ``fixed_level``,
    the paper's default encoding level in its headline results.
    """
    if adaptive and slo_s is not None:
        return SLOAwareAdapter(level_names=list(level_names))
    return FixedLevelPolicy(level_name=fixed_level)
