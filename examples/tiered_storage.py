"""Tiered storage: a capacity-squeezed cluster that demotes instead of drops.

Run with ``PYTHONPATH=src python examples/tiered_storage.py``
(set ``REPRO_SMOKE=1`` for a fast CI-sized run).

The example serves the same pressured workload against two 2-node
deployments, each declared as one :class:`repro.ServingSpec`:

1. **memory-only** — each node has a small hot tier and nothing behind it, so
   capacity evictions drop contexts and re-accesses re-pay the full prefill;
2. **tiered** — the same hot tier backed by a 10x larger disk tier behind a
   1 Gbps tier link, so evictions demote, cold hits promote back to hot, and
   only the tier-link read (not a re-prefill) is paid on a cold hit.

It then prints both unified run reports side by side: the tiered run converts
evict-drops into demotions, text fallbacks into cold hits, and shows the
per-tier hit ratios, the monthly storage bill and the $/request figure the
Appendix-E prices imply.
"""

from __future__ import annotations

import os

from repro import ServingSpec, WorkloadGenerator, serve

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
NUM_REQUESTS = 40 if SMOKE else 80
HOT_BYTES = 120e6
COLD_BYTES = 1.2e9


def run(cold_bytes_per_node: float | None) -> None:
    spec = ServingSpec(
        model="mistral-7b",
        topology="tiered" if cold_bytes_per_node else "cluster",
        num_nodes=2,
        replication=2,
        max_bytes_per_node=HOT_BYTES,
        cold_bytes_per_node=cold_bytes_per_node,
        tier_bandwidth_gbps=1.0,
        eviction_policy="lru",
        chunk_tokens=512,
        slo_s=1.5,
        adaptive=False,
    )
    workload = WorkloadGenerator(
        num_contexts=10, zipf_alpha=1.0, token_choices=(700, 1_400), seed=7
    )
    report = serve(spec, workload=workload, num_requests=NUM_REQUESTS)
    print(report.format_table())
    cold = [r for r in report.responses if r.served_tier == "cold"]
    if cold:
        mean_tier = sum(r.tier_transfer_s for r in cold) / len(cold)
        print(
            f"  {len(cold)} cold hits paid a mean {mean_tier:.3f}s tier-link read "
            "instead of a re-prefill"
        )


def main() -> None:
    print(f"=== memory-only nodes ({HOT_BYTES / 1e6:.0f} MB each) ===")
    run(cold_bytes_per_node=None)
    print()
    print(
        f"=== tiered nodes ({HOT_BYTES / 1e6:.0f} MB hot + "
        f"{COLD_BYTES / 1e6:.0f} MB cold behind 1 Gbps) ==="
    )
    run(cold_bytes_per_node=COLD_BYTES)


if __name__ == "__main__":
    main()
