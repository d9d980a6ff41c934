"""Cluster simulation: a 4-node KV-cache cluster surviving a node failure.

Run with ``PYTHONPATH=src python examples/cluster_simulation.py``
(set ``REPRO_SMOKE=1`` for a fast CI-sized run).

The example exercises the unified serving API's arrival-driven driver:

1. declare a 4-node cluster with heterogeneous links, bounded node capacity,
   LRU eviction and 2x replication as one :class:`repro.ServingSpec`,
2. replay a Zipf(α=1) / Poisson multi-tenant workload *open-loop* through the
   driver — requests enter the event simulation at their true arrival times,
   so queueing is steady-state, not an artifact of fixed-size waves,
3. kill one node mid-stream — queries fail over to replicas or fall back to
   the text path, so TTFT degrades but every request is served,
4. print the unified run report: per-node hit ratios, evictions, TTFT and
   queueing percentiles, arrival rates, bytes moved and SLO attainment.
"""

from __future__ import annotations

import os

from repro import Driver, ServingSpec, WorkloadGenerator, build_backend

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
NUM_REQUESTS = 60 if SMOKE else 240
FAIL_AT = NUM_REQUESTS // 2
FAILED_NODE = "node-2"


def main() -> None:
    # Heterogeneous storage nodes: two on a fast LAN, two farther away.
    spec = ServingSpec(
        model="mistral-7b",
        topology="cluster",
        num_nodes=4,
        replication=2,
        node_bandwidths_gbps=(3.0, 3.0, 1.5, 1.0),
        max_bytes_per_node=600e6,  # a handful of long contexts per node
        eviction_policy="lru",
        chunk_tokens=512,
        slo_s=1.5,
        adaptive=False,
    )
    backend = build_backend(spec)
    workload = WorkloadGenerator(
        num_contexts=16,
        zipf_alpha=1.0,
        arrival_rate_per_s=2.0,
        token_choices=(700, 1_400, 2_800) if not SMOKE else (350, 700),
        seed=2024,
    )
    driver = Driver(backend, workload, node_failures={FAIL_AT: FAILED_NODE})

    print(
        f"Serving {NUM_REQUESTS} requests open-loop on 4 nodes; "
        f"{FAILED_NODE} dies at request {FAIL_AT}\n"
    )
    report = driver.run(NUM_REQUESTS)
    print(report.format_table())

    # Every request must be served for the positional before/after split to
    # line up with request indices (nothing is shed or dropped here).
    assert report.hard_failures == 0, "every request must be served"
    assert len(report.responses) == NUM_REQUESTS

    before = [r.ttft_s for r in report.responses[:FAIL_AT]]
    after = [r.ttft_s for r in report.responses[FAIL_AT:]]
    print(
        f"\nmean TTFT before failure: {sum(before) / len(before):.3f}s, "
        f"after: {sum(after) / len(after):.3f}s"
    )
    print(f"failovers: {report.failovers}, hard failures: {report.hard_failures}")


if __name__ == "__main__":
    main()
