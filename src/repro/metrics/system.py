"""System metrics: TTFT breakdowns, KV cache sizes and SLO violation rates.

The paper reports two system metrics (§7.1): the size of the (compressed) KV
cache, which measures bandwidth demand, and the time-to-first-token (TTFT),
which combines the loading delay of the context (network + decode/prefill)
with the prefill of the user's new question.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TTFTBreakdown",
    "QueueingTTFTBreakdown",
    "slo_violation_rate",
]


@dataclass(frozen=True)
class TTFTBreakdown:
    """Time-to-first-token decomposed the way Figure 14a reports it.

    Attributes
    ----------
    network_s:
        Time spent transferring the context (text or KV bitstreams).
    decode_s:
        Receiver-side bitstream decode time not hidden by the transfer.
    compute_s:
        Prefill compute time (text chunks and the user prompt).
    """

    network_s: float
    decode_s: float
    compute_s: float

    def __post_init__(self) -> None:
        if min(self.network_s, self.decode_s, self.compute_s) < 0:
            raise ValueError("delay components must be non-negative")


@dataclass(frozen=True)
class QueueingTTFTBreakdown(TTFTBreakdown):
    """TTFT under concurrency: the shared-resource wait is a first-class part.

    The event-driven serving engine decomposes a request's latency into the
    three activity components plus ``queueing_s`` — the time spent waiting for
    admission, for the network link, and for the GPU run queue.  Under no
    contention ``queueing_s`` is zero and the breakdown degenerates to the
    lone-request :class:`TTFTBreakdown` of the method harness.
    """

    queueing_s: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.queueing_s < 0:
            raise ValueError("queueing_s must be non-negative")

    @property
    def total_s(self) -> float:
        return self.network_s + self.decode_s + self.compute_s + self.queueing_s


def slo_violation_rate(ttfts: Sequence[float], slo_s: float) -> float:
    """Fraction of requests whose TTFT exceeded the SLO (Figure 13 metric).

    Zero samples mean zero observed violations: the rate is 0.0 (with a
    warning), so SLO accounting over an idle resource or a fully-shed run
    degrades to "nothing violated" instead of crashing report generation.
    """
    if slo_s <= 0:
        raise ValueError("slo_s must be positive")
    ttfts = np.asarray(list(ttfts), dtype=np.float64)
    if ttfts.size == 0:
        warnings.warn(
            "slo_violation_rate: no TTFT samples; reporting a 0.0 rate",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return float(np.mean(ttfts > slo_s))
