"""End-to-end cluster simulation tests (the acceptance scenario, scaled down).

The runner is :class:`~repro.serving.api.Driver`; per-request outcomes are read
off ``RunReport.responses``, which holds one response per request in arrival
order whenever nothing was shed and nothing failed hard.
"""

from __future__ import annotations

import warnings

import pytest

from repro.cluster import WorkloadGenerator
from repro.serving.api import Driver, ServingSpec

NUM_REQUESTS = 50


SPEC = ServingSpec(
    model="mistral-7b",
    topology="cluster",
    num_nodes=3,
    replication=2,
    bandwidth_gbps=3.0,
    max_bytes_per_node=150e6,
    eviction_policy="lru",
    chunk_tokens=256,
    adaptive=False,
)


def _workload(seed: int = 7) -> WorkloadGenerator:
    return WorkloadGenerator(
        num_contexts=10, zipf_alpha=1.0, token_choices=(320, 640), seed=seed
    )


def _run(driver: Driver, num_requests: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # topology segment notice
        return driver.run(num_requests)


def _failure_run():
    driver = Driver(SPEC.with_(slo_s=1.0), _workload(), node_failures={25: "node-1"})
    return _run(driver, NUM_REQUESTS)


@pytest.fixture(scope="module")
def report():
    return _failure_run()


class TestRun:
    def test_every_request_served(self, report):
        assert report.hard_failures == 0
        assert len(report.responses) == NUM_REQUESTS
        assert report.kv_served + report.text_served == NUM_REQUESTS

    def test_cache_behaviour_reported(self, report):
        assert 0.0 < report.hit_ratio <= 1.0
        assert report.total_evictions > 0
        assert report.ingests >= len({r.context_id for r in report.responses})
        assert report.replication_bytes > 0
        assert report.query_bytes > 0

    def test_latency_summary(self, report):
        assert report.ttft.count == NUM_REQUESTS
        assert 0 < report.ttft.p50_s <= report.ttft.p95_s <= report.ttft.p99_s
        assert report.slo_attainment is not None
        assert 0.0 <= report.slo_attainment <= 1.0

    def test_node_summaries_cover_cluster(self, report):
        assert {s.node_id for s in report.node_summaries} == {
            "node-0",
            "node-1",
            "node-2",
        }
        downed = {s.node_id: s for s in report.node_summaries}["node-1"]
        assert not downed.up

    def test_failure_degrades_but_serves(self, report):
        after_failure = report.responses[25:]
        assert after_failure  # the run extends past the failure
        assert all(r.served_by != "node-1" for r in after_failure)

    def test_format_table_mentions_nodes(self, report):
        table = report.format_table()
        assert "hit ratio" in table
        assert "node-1" in table and "DOWN" in table


class TestBlackout:
    def test_total_blackout_degrades_to_text_without_failures(self):
        driver = Driver(
            SPEC.with_(num_nodes=2),
            _workload(seed=3),
            node_failures={5: "node-0", 7: "node-1"},
        )
        report = _run(driver, 20)
        assert report.hard_failures == 0
        assert len(report.responses) == 20
        # With every node down, new contexts cannot be ingested but every
        # request is still answered from the text path.
        assert report.failed_ingests > 0
        after = report.responses[7:]
        assert after and all(not r.used_kv_cache for r in after)


class TestRepeatedRuns:
    def test_counters_are_per_run(self):
        driver = Driver(SPEC, _workload(seed=5))
        first = driver.run(20)
        second = driver.run(20)
        # Eviction counts are per-run deltas that sum to the cluster total.
        assert (
            first.total_evictions + second.total_evictions
            == driver.backend.total_evictions()
        )
        # The warm cache does not re-ingest contexts that are still resident.
        assert second.ingests <= first.ingests
        assert second.hard_failures == 0


class TestDeterminism:
    def test_identical_runs_identical_reports(self, report):
        first, second = report, _failure_run()
        assert first.ttft == second.ttft
        assert first.hit_ratio == second.hit_ratio
        assert first.total_evictions == second.total_evictions
        assert [r.served_by for r in first.responses] == [
            r.served_by for r in second.responses
        ]
