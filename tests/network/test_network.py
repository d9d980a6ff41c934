"""Tests for bandwidth traces, links and the pipelined transfer simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    ConstantTrace,
    NetworkLink,
    PiecewiseTrace,
    RandomTrace,
    StepTrace,
    gbps,
)


class TestTraces:
    def test_gbps_conversion(self):
        assert gbps(3) == 3e9

    def test_constant_trace(self):
        trace = ConstantTrace(gbps(2))
        assert trace.bandwidth_at(0) == trace.bandwidth_at(100) == 2e9

    def test_constant_trace_invalid(self):
        with pytest.raises(ValueError):
            ConstantTrace(0)

    def test_piecewise_segments(self):
        trace = PiecewiseTrace(times=(0.0, 2.0, 4.0), bandwidths_bps=(2e9, 0.2e9, 1e9))
        assert trace.bandwidth_at(1.0) == 2e9
        assert trace.bandwidth_at(2.5) == 0.2e9
        assert trace.bandwidth_at(100.0) == 1e9

    @pytest.mark.parametrize(
        "times,bws",
        [((1.0,), (1e9,)), ((0.0, 0.0), (1e9, 2e9)), ((0.0,), (0.0,)), ((), ())],
    )
    def test_piecewise_invalid(self, times, bws):
        with pytest.raises(ValueError):
            PiecewiseTrace(times=times, bandwidths_bps=bws)

    def test_step_trace_matches_figure7(self):
        trace = StepTrace(gbps(2), gbps(0.2), gbps(1), drop_at_s=2, recover_at_s=4)
        assert trace.bandwidth_at(0.5) == gbps(2)
        assert trace.bandwidth_at(3) == gbps(0.2)
        assert trace.bandwidth_at(5) == gbps(1)

    def test_random_trace_within_bounds_and_deterministic(self):
        trace_a = RandomTrace(seed=7)
        trace_b = RandomTrace(seed=7)
        for t in (0.0, 1.0, 5.0, 20.0):
            assert trace_a.min_bps <= trace_a.bandwidth_at(t) <= trace_a.max_bps
            assert trace_a.bandwidth_at(t) == trace_b.bandwidth_at(t)

    def test_random_trace_different_seeds_differ(self):
        samples_a = [RandomTrace(seed=1).bandwidth_at(t) for t in range(10)]
        samples_b = [RandomTrace(seed=2).bandwidth_at(t) for t in range(10)]
        assert samples_a != samples_b

    def test_average_bandwidth(self):
        trace = PiecewiseTrace(times=(0.0, 1.0), bandwidths_bps=(1e9, 3e9))
        assert trace.average_bandwidth(0.0, 2.0) == pytest.approx(2e9, rel=0.05)


class TestLink:
    def test_transfer_duration_constant_link(self):
        link = NetworkLink(ConstantTrace(gbps(1)))
        result = link.transfer(125e6)  # 1 Gb of data on a 1 Gbps link
        assert result.duration == pytest.approx(1.0, rel=0.02)

    def test_zero_bytes(self):
        link = NetworkLink(ConstantTrace(gbps(1)))
        assert link.transfer(0).duration == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NetworkLink(ConstantTrace(gbps(1))).transfer(-1)

    def test_rtt_added(self):
        link = NetworkLink(ConstantTrace(gbps(1)), rtt_s=0.05)
        assert link.transfer(125e6).duration == pytest.approx(1.05, rel=0.02)

    def test_variable_trace_slows_transfer(self):
        fast = NetworkLink(ConstantTrace(gbps(2)))
        slow_mid = NetworkLink(StepTrace(gbps(2), gbps(0.2), gbps(2), 0.5, 5.0))
        payload = 250e6
        assert slow_mid.transfer(payload).duration > fast.transfer(payload).duration

    def test_achieved_throughput(self):
        link = NetworkLink(ConstantTrace(gbps(2)))
        result = link.transfer(250e6)
        assert result.achieved_throughput_bps == pytest.approx(2e9, rel=0.02)

    def test_estimate_matches_constant_link(self):
        link = NetworkLink(ConstantTrace(gbps(4)))
        assert link.estimate_transfer_time(500e6) == pytest.approx(1.0, rel=0.01)

    def test_start_time_offsets_trace(self):
        link = NetworkLink(StepTrace(gbps(2), gbps(0.2), gbps(2), 1.0, 50.0))
        early = link.transfer(125e6, start_time=0.0)
        late = link.transfer(125e6, start_time=2.0)
        assert late.duration > early.duration


@settings(max_examples=20, deadline=None)
@given(payload_mb=st.floats(1, 500), bandwidth=st.floats(0.2, 50))
def test_transfer_time_property(payload_mb, bandwidth):
    """Transfer duration always matches bytes*8/bandwidth on constant links."""
    link = NetworkLink(ConstantTrace(gbps(bandwidth)))
    duration = link.transfer(payload_mb * 1e6).duration
    assert duration == pytest.approx(payload_mb * 8e6 / gbps(bandwidth), rel=0.05)
