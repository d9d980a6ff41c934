"""SLO attainment under injected faults, across replication factors.

The paper's cluster serves compressed KV caches from sharded, replicated
nodes; this experiment measures what that replication is *for*.  The same
Zipf workload is replayed at several fault intensities — a single-node crash
window covering a growing fraction of the run — against replication factors
1 and 2, with the self-healing layer (retries with backoff, hedged reads,
circuit breakers, background re-replication) enabled throughout.  With one
replica, every context homed on the crashed node degrades to text re-prefill
and blows the TTFT SLO for the whole window; with two, reads fail over and
retry onto the surviving replica and re-replication restores redundancy, so
SLO attainment stays near the healthy baseline.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Sequence

from ..cluster import WorkloadGenerator
from ..faults import FaultSchedule, NodeCrash, ResiliencePolicy
from ..serving.api import ServingSpec, serve
from .common import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..telemetry.trace import Tracer

__all__ = ["run_resilience"]


def run_resilience(
    model: str = "mistral-7b",
    replication_factors: Sequence[int] = (1, 2),
    fault_intensities: Sequence[float] = (0.0, 0.5, 1.0),
    num_nodes: int = 3,
    num_requests: int = 80,
    num_contexts: int = 8,
    concurrency: int = 4,
    arrival_rate_per_s: float = 2.0,
    slo_s: float = 1.0,
    seed: int = 11,
    tracer: "Tracer | None" = None,
) -> ExperimentResult:
    """Sweep SLO attainment vs fault intensity across replication factors.

    ``fault_intensity`` is the fraction of the run's nominal span a
    single-node crash window covers (``0.0`` is the healthy baseline); the
    crash starts 20% into the run.  Every run serves with the full
    :class:`~repro.faults.ResiliencePolicy` so the replication factor is the
    only thing that changes between rows at one intensity.

    Pass a ``tracer`` to land every sweep point's fault/recovery instants on
    one timeline (``"faults"`` track).
    """
    result = ExperimentResult(
        name="resilience",
        description="SLO attainment vs fault intensity across replication factors",
        metadata={
            "model": model,
            "num_nodes": num_nodes,
            "num_requests": num_requests,
            "concurrency": concurrency,
            "slo_s": slo_s,
            "arrival_rate_per_s": arrival_rate_per_s,
        },
    )
    nominal_span_s = num_requests / arrival_rate_per_s
    for replication in replication_factors:
        if not 1 <= replication <= num_nodes:
            raise ValueError("replication_factors must be in [1, num_nodes]")
        spec = ServingSpec(
            model=model,
            topology="cluster",
            num_nodes=num_nodes,
            replication=replication,
            chunk_tokens=256,
            concurrency=concurrency,
            slo_s=slo_s,
            adaptive=False,
            resilience=ResiliencePolicy(),
        )
        for intensity in fault_intensities:
            if not 0.0 <= intensity <= 1.0:
                raise ValueError("fault_intensities must be in [0, 1]")
            faults = None
            if intensity > 0.0:
                crash_at = 0.2 * nominal_span_s
                faults = FaultSchedule(
                    [
                        NodeCrash(
                            "node-0",
                            at_s=crash_at,
                            recover_at_s=crash_at + intensity * 0.6 * nominal_span_s,
                        )
                    ]
                )
            workload = WorkloadGenerator(
                num_contexts=num_contexts,
                zipf_alpha=1.0,
                arrival_rate_per_s=arrival_rate_per_s,
                seed=seed,
            )
            with warnings.catch_warnings():
                # The driver's segment-boundary warning is the sweep's point.
                warnings.simplefilter("ignore")
                report = serve(
                    spec,
                    workload=workload,
                    num_requests=num_requests,
                    tracer=tracer,
                    faults=faults,
                )
            resilience = report.resilience
            result.add_row(
                replication=replication,
                fault_intensity=intensity,
                slo_attainment=report.slo_attainment,
                availability=resilience.availability if resilience else 1.0,
                degraded=report.degraded,
                failovers=report.failovers,
                retries=resilience.retries if resilience else 0,
                hedged_reads=resilience.hedged_reads if resilience else 0,
                repairs_completed=resilience.repairs_completed if resilience else 0,
                mean_mttr_s=resilience.mean_mttr_s if resilience else None,
                ttft_p95_s=report.ttft.p95_s,
                text_served=report.text_served,
            )
    return result
