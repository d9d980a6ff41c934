"""Bandwidth traces for the KV streaming experiments.

The paper evaluates CacheGen under a wide range of network conditions:
constant links from 0.4 to 400 Gbps (Figure 11), a step trace illustrating the
adaptation logic (Figure 7), and random traces where each chunk's bandwidth is
drawn from 0.1-10 Gbps (Figure 13).  A bandwidth trace maps time (seconds) to
available throughput (bits per second); the :class:`~repro.network.link.NetworkLink`
integrates a trace to turn byte counts into transfer delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BandwidthTrace",
    "ConstantTrace",
    "StepTrace",
    "PiecewiseTrace",
    "RandomTrace",
    "gbps",
]

GBPS = 1e9


def gbps(value: float) -> float:
    """Convert Gbps to bits per second.

    Example
    -------
    >>> gbps(3.0)
    3000000000.0
    """
    return value * GBPS


class BandwidthTrace:
    """Base class: bandwidth (bits/s) as a piecewise-constant function of time."""

    def bandwidth_at(self, time_s: float) -> float:
        """Available throughput in bits/s at ``time_s``."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantTrace(BandwidthTrace):
    """A fixed-rate link.

    Example
    -------
    >>> trace = ConstantTrace(gbps(3.0))
    >>> trace.bandwidth_at(10.0) == gbps(3.0)
    True
    """

    bandwidth_bps: float

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")

    def bandwidth_at(self, time_s: float) -> float:
        return self.bandwidth_bps


@dataclass(frozen=True)
class PiecewiseTrace(BandwidthTrace):
    """Piecewise-constant bandwidth defined by breakpoints.

    ``times`` are the start times of each segment (must begin at 0 and be
    increasing); ``bandwidths_bps`` the corresponding rates.  The final
    segment extends to infinity.
    """

    times: tuple[float, ...]
    bandwidths_bps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.bandwidths_bps) or not self.times:
            raise ValueError("times and bandwidths must be equally sized and non-empty")
        if self.times[0] != 0.0:
            raise ValueError("the first segment must start at time 0")
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("segment start times must be strictly increasing")
        if any(b <= 0 for b in self.bandwidths_bps):
            raise ValueError("bandwidths must be positive")

    def bandwidth_at(self, time_s: float) -> float:
        index = int(np.searchsorted(self.times, time_s, side="right")) - 1
        index = max(index, 0)
        return self.bandwidths_bps[index]


def StepTrace(
    initial_bps: float, drop_bps: float, recovered_bps: float, drop_at_s: float, recover_at_s: float
) -> PiecewiseTrace:
    """The Figure 7 style trace: start fast, drop sharply, partially recover.

    Example
    -------
    >>> trace = StepTrace(gbps(3.0), gbps(0.5), gbps(3.0), drop_at_s=2.0, recover_at_s=6.0)
    >>> trace.bandwidth_at(4.0) == gbps(0.5)
    True
    """
    if not 0 < drop_at_s < recover_at_s:
        raise ValueError("require 0 < drop_at_s < recover_at_s")
    return PiecewiseTrace(
        times=(0.0, drop_at_s, recover_at_s),
        bandwidths_bps=(initial_bps, drop_bps, recovered_bps),
    )


@dataclass(frozen=True)
class RandomTrace(BandwidthTrace):
    """Bandwidth re-drawn uniformly from a range every ``interval_s`` seconds.

    This reproduces the §7.4 setup where each context chunk's bandwidth is
    sampled from a random distribution between 0.1 and 10 Gbps.

    Example
    -------
    >>> trace = RandomTrace(min_bps=gbps(0.1), max_bps=gbps(10.0), seed=0)
    >>> trace.bandwidth_at(1.0) == RandomTrace(seed=0).bandwidth_at(1.0)  # doctest: +SKIP
    True
    """

    min_bps: float = 0.1 * GBPS
    max_bps: float = 10.0 * GBPS
    interval_s: float = 0.25
    seed: int = 0
    horizon_s: float = 120.0

    def __post_init__(self) -> None:
        if self.min_bps <= 0 or self.max_bps <= self.min_bps:
            raise ValueError("require 0 < min_bps < max_bps")
        if self.interval_s <= 0 or self.horizon_s <= 0:
            raise ValueError("interval_s and horizon_s must be positive")
        rng = np.random.default_rng(self.seed)
        num_segments = int(np.ceil(self.horizon_s / self.interval_s)) + 1
        samples = rng.uniform(self.min_bps, self.max_bps, size=num_segments)
        object.__setattr__(self, "_samples", tuple(samples))

    def bandwidth_at(self, time_s: float) -> float:
        samples: Sequence[float] = getattr(self, "_samples")
        index = min(int(max(time_s, 0.0) // self.interval_s), len(samples) - 1)
        return samples[index]
