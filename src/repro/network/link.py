"""A simulated network link between the KV storage server and the GPU server.

The link integrates a :class:`~repro.network.bandwidth.BandwidthTrace` to
answer the only question a context load needs: *how long does it take to push N
bytes starting at time t?*  It also reports the throughput actually achieved
for a completed transfer, which is what CacheGen's adapter uses to estimate
the bandwidth available to the next chunk (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bandwidth import BandwidthTrace, ConstantTrace

__all__ = ["NetworkLink", "TransferResult"]


@dataclass(frozen=True)
class TransferResult:
    """Outcome of transferring one payload over the link."""

    start_time: float
    end_time: float
    num_bytes: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def achieved_throughput_bps(self) -> float:
        """Observed throughput in bits per second."""
        if self.duration <= 0:
            return float("inf")
        return self.num_bytes * 8.0 / self.duration


class NetworkLink:
    """Simulates byte transfers over a time-varying link.

    Parameters
    ----------
    trace:
        Bandwidth trace of the link.  Defaults to a constant 3 Gbps link, the
        paper's headline evaluation setting.
    rtt_s:
        Round-trip time added once per transfer (request/first-byte latency).
    integration_step_s:
        Time step used to integrate the trace.

    Example
    -------
    >>> from repro.network.bandwidth import gbps
    >>> link = NetworkLink(ConstantTrace(gbps(3.0)))
    >>> round(link.transfer(num_bytes=3e9 / 8).duration, 9)  # one second of payload
    1.0
    """

    def __init__(
        self,
        trace: BandwidthTrace | None = None,
        rtt_s: float = 0.0,
        integration_step_s: float = 0.005,
    ) -> None:
        if integration_step_s <= 0:
            raise ValueError("integration_step_s must be positive")
        if rtt_s < 0:
            raise ValueError("rtt_s must be non-negative")
        self.trace = trace or ConstantTrace(3e9)
        self.rtt_s = rtt_s
        self.integration_step_s = integration_step_s

    def transfer(self, num_bytes: float, start_time: float = 0.0) -> TransferResult:
        """Simulate sending ``num_bytes`` starting at ``start_time`` seconds."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return TransferResult(start_time=start_time, end_time=start_time, num_bytes=0.0)

        remaining_bits = num_bytes * 8.0
        time = start_time + self.rtt_s
        step = self.integration_step_s
        # Integrate the piecewise-constant trace in fixed steps; the final
        # partial step is computed exactly.
        while remaining_bits > 0:
            rate = self.trace.bandwidth_at(time)
            bits_this_step = rate * step
            if bits_this_step >= remaining_bits:
                time += remaining_bits / rate
                remaining_bits = 0.0
            else:
                remaining_bits -= bits_this_step
                time += step
        return TransferResult(start_time=start_time, end_time=time, num_bytes=num_bytes)

    def estimate_transfer_time(self, num_bytes: float, at_time: float = 0.0) -> float:
        """Expected transfer time assuming the current rate stays constant.

        This mirrors the adapter's estimator: it measures the throughput of
        the previous chunk and assumes it persists (§5.3).
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        rate = self.trace.bandwidth_at(at_time)
        return self.rtt_s + num_bytes * 8.0 / rate
