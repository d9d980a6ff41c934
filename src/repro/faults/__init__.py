"""Deterministic fault injection and self-healing serving.

Declare *what goes wrong* with a :class:`FaultSchedule` (node crashes, link
degradation and flapping, corrupted replicas — all on the
simulated clock), thread it through ``Driver(faults=...)``, and configure *how
the system answers* with a :class:`ResiliencePolicy` on the serving spec
(retries with seeded-jitter backoff, hedged replica reads, per-node circuit
breakers, background re-replication, graceful degradation).  The run's
:class:`ResilienceReport` rides on ``RunReport.resilience``.
"""

from .. import _lazy_exports

__all__ = [
    "NodeCrash",
    "LinkDegradation",
    "Corruption",
    "FaultSpec",
    "FaultEvent",
    "FaultSchedule",
    "RetryPolicy",
    "HedgePolicy",
    "BreakerPolicy",
    "ResiliencePolicy",
    "CircuitBreaker",
    "ReadOutcome",
    "FaultOutcome",
    "ResilienceReport",
    "ResilienceManager",
    "FaultInjector",
    "ScaledTrace",
]

# Names resolve on first use: the serving path loads these modules only for a
# run that injects faults or carries a resilience policy.
__getattr__ = _lazy_exports(
    __name__,
    {
        ".injector": ("FaultInjector", "ScaledTrace"),
        ".resilience": (
            "BreakerPolicy",
            "CircuitBreaker",
            "FaultOutcome",
            "HedgePolicy",
            "ReadOutcome",
            "ResilienceManager",
            "ResiliencePolicy",
            "ResilienceReport",
            "RetryPolicy",
        ),
        ".schedule": (
            "Corruption",
            "FaultEvent",
            "FaultSchedule",
            "FaultSpec",
            "LinkDegradation",
            "NodeCrash",
        ),
    },
)
