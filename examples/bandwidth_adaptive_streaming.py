"""Bandwidth-adaptive KV streaming under an SLO (the Figure 7 scenario).

A chat session's long history is streamed to the GPU server while the
available bandwidth collapses mid-transfer.  The example compares three
deliveries of the same context:

* the 8-bit quantization baseline (no adaptation, large payload),
* CacheGen without adaptation (fixed default encoding level),
* CacheGen with the SLO-aware adapter, which switches chunks to lower
  encoding levels or to text recomputation as the bandwidth drops.

Run with ``python examples/bandwidth_adaptive_streaming.py``.
"""

from __future__ import annotations

import os

from repro import NetworkLink, StepTrace, gbps
from repro.baselines import UniformQuantizationBaseline
from repro.experiments.common import Workbench

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    slo_s = 6.0
    workbench = Workbench(
        model="mistral-7b",
        dataset="longchat",
        num_contexts=1,
        context_token_cap=2_400 if SMOKE else None,
    )
    record = workbench.records[0]
    print(
        f"Streaming the KV cache of a {record.num_tokens}-token chat history "
        f"with a {slo_s:.0f}s TTFT SLO.\n"
        "Bandwidth: 0.5 Gbps, dropping to 0.05 Gbps at t=2s, recovering to 0.3 Gbps at t=4s.\n"
    )
    trace = StepTrace(gbps(0.5), gbps(0.05), gbps(0.3), drop_at_s=2.0, recover_at_s=4.0)
    link = NetworkLink(trace)

    methods = {
        "8-bit quantization": UniformQuantizationBaseline(8),
        "CacheGen (no adaptation)": workbench.cachegen_method(adaptive=False),
        "CacheGen (adaptive)": workbench.cachegen_method(adaptive=True),
    }
    for name, method in methods.items():
        outcome = method.evaluate(workbench.request_for(record, link=link, slo_s=slo_s))
        loading = outcome.loading_delay_s
        configs = outcome.extras.get("configs")
        print(f"{name}:")
        print(f"  loading delay {loading:.2f}s -> {'meets' if loading <= slo_s else 'VIOLATES'} the SLO")
        print(f"  bytes sent {outcome.transmitted_bytes / 1e6:.1f} MB, quality {outcome.quality.value:.3f}")
        if configs:
            print(f"  per-chunk configurations: {configs}")
        print()


if __name__ == "__main__":
    main()
