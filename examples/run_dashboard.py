"""Operational dashboard of a cluster run with one injected node failure.

Run with ``PYTHONPATH=src python examples/run_dashboard.py``
(set ``REPRO_SMOKE=1`` for a fast CI-sized run).

The example tells the on-call story end to end:

1. drive a healthy cluster run to measure the steady-state TTFT and derive a
   TTFT SLO from it,
2. replay the same arrival stream with a scheduled :class:`repro.NodeCrash`
   taking the context's only replica down mid-run — every request in between
   degrades to text re-prefill, so the per-window TTFT p99 spikes and the hit
   ratio collapses,
3. the burn-rate :class:`repro.telemetry.AlertEngine` fires during the spike
   and resolves after the recovery (on the simulated clock),
4. write the self-contained HTML dashboard (traffic, TTFT percentile
   ribbons, utilization lanes, tier hit-ratio stack, fault timeline, alert
   timeline) plus the healthy-vs-failure diff view.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from pathlib import Path

from repro import (
    Driver,
    FaultSchedule,
    NodeCrash,
    ServeRequest,
    ServingSpec,
    SLOObjective,
    Tracer,
    build_backend,
    render_diff_dashboard,
    write_dashboard,
)

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
NUM_REQUESTS = 60 if SMOKE else 120
ARRIVAL_RATE = 10.0  # requests per second
NUM_TOKENS = 640
WINDOW_S = 0.5
CONTEXT = "ops-context"


def spec() -> ServingSpec:
    # Each node runs a two-worker GPU fleet (``gpu_workers=2``) so the
    # dashboard's utilization lanes show per-worker swimlanes; dispatch and
    # pool sizing are spec fields, not engine internals.
    return ServingSpec(
        model="mistral-7b",
        chunk_tokens=256,
        topology="cluster",
        num_nodes=2,
        replication=1,
        gpu_workers=2,
        dispatch_policy="locality",
    )


def requests() -> list[ServeRequest]:
    return [
        ServeRequest(
            CONTEXT, f"Question {i}?", arrival_s=i / ARRIVAL_RATE, num_tokens=NUM_TOKENS
        )
        for i in range(NUM_REQUESTS)
    ]


def main() -> None:
    # 1. A healthy run sets the baseline the SLO is derived from.
    healthy = Driver(build_backend(spec()), requests(), window_s=WINDOW_S).run()
    slo = SLOObjective("ttft", ttft_s=2.0 * healthy.ttft.p99_s, target=0.9)
    print(
        f"healthy run: TTFT p99={healthy.ttft.p99_s:.3f}s -> "
        f"SLO {slo.target:.0%} within {slo.ttft_s:.3f}s"
    )

    # Placement is deterministic, so a scratch backend tells us which node
    # holds the context's only replica before we decide what to break.
    scratch = build_backend(spec())
    scratch.ingest(CONTEXT, NUM_TOKENS)
    primary = scratch.replicas_for(CONTEXT)[0]

    # 2. The same arrival stream, with a scheduled crash window mid-run.
    fail_s = NUM_REQUESTS / ARRIVAL_RATE / 3
    recover_s = 2 * fail_s
    faults = FaultSchedule([NodeCrash(primary, at_s=fail_s, recover_at_s=recover_s)])
    tracer = Tracer()
    driver = Driver(
        build_backend(spec()),
        requests(),
        faults=faults,
        tracer=tracer,
        window_s=WINDOW_S,
        slos=[slo],
    )
    with warnings.catch_warnings():
        # The driver warns once that the crash boundary flushes queued
        # backlog; the outage is this example's point.
        warnings.simplefilter("ignore")
        report = driver.run()
    print(f"\nfailure run: {primary} down at t={fail_s:.1f}s, up at t={recover_s:.1f}s")
    print(report.format_table())

    # 3. The window series shows the spike; the alert brackets it.
    spike = max(
        report.timeseries.windows(),
        key=lambda w: w.ttft_percentile(99.0) if w.ttft_samples else 0.0,
    )
    print(
        f"\nworst window [{spike.start_s:g}s, {spike.end_s:g}s): "
        f"TTFT p99={spike.ttft_percentile(99.0):.3f}s, "
        f"hit ratio={spike.hit_ratio:.0%}"
    )
    for alert in report.alerts:
        resolved = (
            f"resolved at {alert.resolved_at_s:g}s"
            if alert.resolved_at_s is not None
            else "still active"
        )
        print(f"alert [{alert.severity}] {alert.name}: fired at {alert.fired_at_s:g}s, {resolved}")

    # 4. The self-contained dashboard plus the healthy-vs-failure diff.
    out_dir = Path(tempfile.mkdtemp(prefix="repro-dashboard-"))
    dashboard = write_dashboard(
        out_dir / "dashboard.html",
        report.timeseries,
        alerts=report.alerts,
        objectives=[slo],
        faults=report.resilience.faults if report.resilience else (),
        title="Cluster run with node failure",
    )
    diff = out_dir / "diff.html"
    diff.write_text(
        render_diff_dashboard(
            healthy.timeseries,
            report.timeseries,
            labels=("healthy", "node failure"),
            title="Healthy vs node-failure run",
        ),
        encoding="utf-8",
    )
    print(f"\nwrote dashboard to {dashboard}")
    print(f"wrote diff view to {diff}")


if __name__ == "__main__":
    main()
