"""Tests for the Zipf/Poisson workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import WorkloadGenerator


@pytest.fixture()
def workload() -> WorkloadGenerator:
    return WorkloadGenerator(
        num_contexts=20, zipf_alpha=1.0, token_choices=(400, 800), seed=42
    )


class TestDeterminism:
    def test_same_seed_same_sequence(self, workload):
        again = WorkloadGenerator(
            num_contexts=20, zipf_alpha=1.0, token_choices=(400, 800), seed=42
        )
        assert workload.generate(100) == again.generate(100)

    def test_different_seed_different_sequence(self, workload):
        other = WorkloadGenerator(
            num_contexts=20, zipf_alpha=1.0, token_choices=(400, 800), seed=43
        )
        assert workload.generate(100) != other.generate(100)

    def test_arrivals_are_a_prefix_but_contexts_are_not(self):
        workload = WorkloadGenerator(seed=42)
        short, long = workload.generate(50), workload.generate(200)
        assert [r.arrival_s for r in short] == [r.arrival_s for r in long[:50]]
        assert [r.session_id for r in short] == [r.session_id for r in long[:50]]
        # The ranks are drawn after every inter-arrival, so they move with n.
        assert sum(a.context_id == b.context_id for a, b in zip(short, long)) == 2

    def test_context_lengths_are_stable(self, workload):
        requests = workload.generate(200)
        lengths: dict[str, int] = {}
        for request in requests:
            assert lengths.setdefault(request.context_id, request.num_tokens) == (
                request.num_tokens
            )
            assert request.num_tokens in (400, 800)


class TestShape:
    def test_arrivals_strictly_increase(self, workload):
        arrivals = [request.arrival_s for request in workload.generate(200)]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_zipf_popularity_is_skewed(self, workload):
        requests = workload.generate(1_000)
        counts = np.zeros(workload.num_contexts)
        for request in requests:
            rank = int(request.context_id.rsplit("-", 1)[1])
            counts[rank] += 1
        # The hottest context dominates the coldest half combined under α=1.
        assert counts[0] > counts[workload.num_contexts // 2 :].sum() * 0.5
        assert counts[0] == counts.max()

    def test_uniform_when_alpha_zero(self):
        workload = WorkloadGenerator(num_contexts=10, zipf_alpha=0.0, seed=1)
        counts = np.zeros(10)
        for request in workload.generate(5_000):
            counts[int(request.context_id.rsplit("-", 1)[1])] += 1
        assert np.all(np.abs(counts / counts.sum() - 0.1) < 0.02)

    def test_mean_gap_follows_arrival_rate(self):
        workload = WorkloadGenerator(arrival_rate_per_s=4.0, seed=3)
        arrivals = [request.arrival_s for request in workload.generate(4_000)]
        assert arrivals[-1] / len(arrivals) == pytest.approx(0.25, rel=0.05)

    def test_prefix_and_rank_name_the_context(self):
        workload = WorkloadGenerator(num_contexts=3, context_prefix="doc", seed=2)
        assert workload.context_id(2) == "doc-0002"
        assert {request.context_id for request in workload.generate(50)} <= {
            "doc-0000",
            "doc-0001",
            "doc-0002",
        }

    def test_sessions_round_robin(self, workload):
        requests = workload.generate(16)
        assert requests[0].session_id != requests[1].session_id
        assert requests[0].session_id == requests[workload.num_sessions].session_id

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_contexts": 0},
            {"zipf_alpha": -0.1},
            {"arrival_rate_per_s": 0.0},
            {"token_choices": ()},
            {"token_choices": (0,)},
            {"num_sessions": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadGenerator(**kwargs)

    def test_invalid_request_count(self, workload):
        with pytest.raises(ValueError):
            workload.generate(0)
