"""Cluster scaling smoke benchmark: hit ratio and p95 TTFT vs node count.

A deliberately small, deterministic run (fixed workload seed, few contexts,
short documents) so it doubles as a CI smoke test for the cluster subsystem:
more nodes means more aggregate cache capacity, so the hit ratio must not
degrade while every request is still served.
"""

from __future__ import annotations

from repro.cluster import WorkloadGenerator
from repro.serving.api import ServingSpec, serve

NODE_COUNTS = (2, 4)
NUM_REQUESTS = 60
#: Room for ~2 ingested contexts per node — small enough that the 2-node
#: cluster churns while the 4-node cluster holds most of the working set.
MAX_BYTES_PER_NODE = 100e6


def _run_scaling() -> dict[int, object]:
    reports = {}
    for num_nodes in NODE_COUNTS:
        spec = ServingSpec(
            model="mistral-7b",
            topology="cluster",
            num_nodes=num_nodes,
            replication=2,
            bandwidth_gbps=3.0,
            max_bytes_per_node=MAX_BYTES_PER_NODE,
            eviction_policy="lru",
            chunk_tokens=256,
            slo_s=1.0,
            adaptive=False,
        )
        workload = WorkloadGenerator(
            num_contexts=10, zipf_alpha=1.0, token_choices=(320, 640), seed=11
        )
        reports[num_nodes] = serve(spec, workload=workload, num_requests=NUM_REQUESTS)
    return reports


def test_cluster_scaling(benchmark):
    reports = benchmark.pedantic(_run_scaling, iterations=1, rounds=1)

    print()
    print(f"{'nodes':>5} {'hit_ratio':>9} {'p50_ttft':>9} {'p95_ttft':>9} {'evictions':>9}")
    for num_nodes, report in sorted(reports.items()):
        print(
            f"{num_nodes:>5} {report.hit_ratio:>9.3f} {report.ttft.p50_s:>8.3f}s "
            f"{report.ttft.p95_s:>8.3f}s {report.total_evictions:>9}"
        )

    for report in reports.values():
        assert report.hard_failures == 0
        assert report.ttft.count == NUM_REQUESTS
    small, large = reports[NODE_COUNTS[0]], reports[NODE_COUNTS[-1]]
    # More nodes -> more aggregate capacity -> at least as many cache hits
    # and no more capacity evictions.
    assert large.hit_ratio >= small.hit_ratio
    assert large.total_evictions <= small.total_evictions
    assert large.ttft.p95_s <= small.ttft.p95_s * 1.5
