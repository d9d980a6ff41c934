"""Multi-tenant workload generation for cluster simulations.

The workload model follows the shape used throughout the cache-network
literature (e.g. Icarus' stationary workloads): context popularity is
Zipf-distributed with exponent ``alpha`` (a handful of hot documents take most
of the traffic), request arrivals are Poisson with a configurable mean rate,
and context lengths are mixed — short chats next to book-length documents —
because the text-vs-KV routing decision depends on length.

Everything is driven by one seed, so a workload object always generates the
same request sequence: cluster experiments are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Request", "WorkloadGenerator"]


@dataclass(frozen=True)
class Request:
    """One query arriving at the cluster frontend."""

    index: int
    arrival_s: float
    session_id: str
    context_id: str
    num_tokens: int
    question: str


class WorkloadGenerator:
    """Generates a deterministic multi-tenant request stream.

    Parameters
    ----------
    num_contexts:
        Size of the context catalogue (ranked 1..n by popularity).
    zipf_alpha:
        Zipf exponent of the popularity distribution; ``1.0`` is the classic
        web-trace setting, ``0`` degenerates to uniform.
    arrival_rate_per_s:
        Mean Poisson arrival rate of queries.
    token_choices:
        Context lengths to draw from; each context keeps one length for its
        lifetime (a document does not change size between queries).
    num_sessions:
        Number of concurrent user sessions issuing the queries round-robin
        by arrival order.
    seed:
        Seed of the single RNG behind popularity draws, arrivals and lengths.

    Example
    -------
    >>> workload = WorkloadGenerator(num_contexts=50, zipf_alpha=1.0, seed=7)
    >>> requests = workload.generate(num_requests=200)
    >>> requests[0].context_id  # doctest: +SKIP
    'ctx-0'
    """

    def __init__(
        self,
        num_contexts: int = 50,
        zipf_alpha: float = 1.0,
        arrival_rate_per_s: float = 2.0,
        token_choices: Sequence[int] = (800, 1_600, 3_200),
        num_sessions: int = 8,
        seed: int = 0,
        context_prefix: str = "ctx",
    ) -> None:
        if num_contexts <= 0:
            raise ValueError("num_contexts must be positive")
        if zipf_alpha < 0:
            raise ValueError("zipf_alpha must be non-negative")
        if arrival_rate_per_s <= 0:
            raise ValueError("arrival_rate_per_s must be positive")
        if not token_choices or any(t <= 0 for t in token_choices):
            raise ValueError("token_choices must be positive lengths")
        if num_sessions <= 0:
            raise ValueError("num_sessions must be positive")
        self.num_contexts = num_contexts
        self.zipf_alpha = zipf_alpha
        self.arrival_rate_per_s = arrival_rate_per_s
        self.token_choices = tuple(int(t) for t in token_choices)
        self.num_sessions = num_sessions
        self.seed = seed
        self.context_prefix = context_prefix

        # Truncated-Zipf pmf over popularity ranks (rank 0 is hottest).
        ranks = np.arange(1, num_contexts + 1, dtype=np.float64)
        weights = ranks ** (-zipf_alpha)
        self._popularity = weights / weights.sum()
        # Per-context lengths are part of the catalogue, not of a run: drawn
        # once from a catalogue RNG so every run sees the same documents.
        catalogue_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA7A]))
        self._lengths = catalogue_rng.choice(self.token_choices, size=num_contexts)

    # ------------------------------------------------------------------ queries
    def context_id(self, rank: int) -> str:
        return f"{self.context_prefix}-{rank:04d}"

    def context_tokens(self, rank: int) -> int:
        return int(self._lengths[rank])

    def generate(self, num_requests: int) -> list[Request]:
        """``num_requests`` requests of this workload.

        The arrival times (and sessions) of ``generate(n)`` are the first
        ``n`` of ``generate(m)`` for any ``m >= n``, but the contexts are not:
        every inter-arrival is drawn before the popularity ranks, so the rank
        stream depends on ``num_requests`` (for ``WorkloadGenerator(seed=42)``,
        2 of the 50 context ids of ``generate(50)`` match the first 50 of
        ``generate(200)``).
        """
        return list(self.iter_requests(num_requests))

    def iter_requests(self, num_requests: int) -> Iterator[Request]:
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x5EED]))
        inter_arrivals = rng.exponential(1.0 / self.arrival_rate_per_s, size=num_requests)
        arrivals = np.cumsum(inter_arrivals)
        ranks = rng.choice(self.num_contexts, size=num_requests, p=self._popularity)
        for index in range(num_requests):
            rank = int(ranks[index])
            yield Request(
                index=index,
                arrival_s=float(arrivals[index]),
                session_id=f"session-{index % self.num_sessions}",
                context_id=self.context_id(rank),
                num_tokens=self.context_tokens(rank),
                question=f"Question {index} about {self.context_id(rank)}?",
            )
