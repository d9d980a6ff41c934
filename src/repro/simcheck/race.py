"""Event-order race detection for the simulated serving stack.

Same-timestamp events in the :class:`~repro.serving.concurrent.events.SimClock`
fire in scheduling (FIFO) order.  That is deterministic — but results that are
only correct *because* of that arbitrary order are one refactor away from
breaking (the exact hazard packet-level simulators hit when tie-breaks
change).  The detector re-runs a simulation with
:class:`~repro.simcheck.sanitizers.ClockSanitizer` perturbing same-timestamp
tie-break order under several seeds and diffs canonical result digests: a
digest that moves under perturbation marks an order-dependent simulation.

Two entry points:

* :func:`find_order_race` — generic: re-run any ``run(clock_factory)``
  callable and compare whatever it returns.
* :func:`check_spec_order_independence` — serving-level: replay a
  :class:`~repro.serving.api.spec.ServingSpec` + fixed request list through
  ``serve()`` and compare :class:`~repro.serving.api.types.RunReport` digests.
  Digests treat responses as a *multiset* (sorted canonical tuples): replayed
  identical requests may legitimately swap identities under perturbation, but
  the set of outcomes must not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .sanitizers import ClockSanitizer

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.encoder import FittedCodec
    from ..serving.api.spec import ServingSpec
    from ..serving.api.types import RunReport, ServeRequest
    from ..serving.concurrent.events import SimClock

__all__ = ["RaceReport", "find_order_race", "run_report_digest", "check_spec_order_independence"]

_ROUND = 9  # digits; well inside float noise, well outside real reorderings


@dataclass(frozen=True)
class RaceReport:
    """Outcome of one race hunt: the baseline digest vs perturbed digests."""

    baseline: object
    perturbed: tuple[tuple[int, object], ...]

    @property
    def mismatching_seeds(self) -> tuple[int, ...]:
        return tuple(seed for seed, digest in self.perturbed if digest != self.baseline)

    @property
    def order_dependent(self) -> bool:
        """True when any perturbed tie-break order changed the results."""
        return bool(self.mismatching_seeds)

    def describe(self) -> str:
        if not self.order_dependent:
            seeds = ", ".join(str(seed) for seed, _ in self.perturbed)
            return f"order-independent under perturbation seeds [{seeds}]"
        return (
            "ORDER-DEPENDENT: results changed under perturbation seeds "
            f"{list(self.mismatching_seeds)} — the simulation depends on "
            "same-timestamp tie-break order"
        )


def find_order_race(
    run: Callable[[Callable[[], "SimClock"]], object],
    seeds: Sequence[int] = (1, 2, 3),
) -> RaceReport:
    """Run ``run`` once FIFO and once per perturbation seed; diff the digests.

    ``run`` receives a clock factory and must return a comparable digest of
    the simulation outcome.  It is called ``len(seeds) + 1`` times and must
    rebuild its own state each time (fresh stores, fresh RNGs) so the only
    varying input is tie-break order.
    """
    if not seeds:
        raise ValueError("at least one perturbation seed is required")
    baseline = run(ClockSanitizer)
    perturbed = tuple(
        (seed, run(lambda seed=seed: ClockSanitizer(perturb_seed=seed)))
        for seed in seeds
    )
    return RaceReport(baseline=baseline, perturbed=perturbed)


def run_report_digest(report: "RunReport") -> tuple:
    """Canonical, order-insensitive summary of a run's observable results."""
    responses = tuple(
        sorted(
            (
                response.context_id,
                round(response.arrival_s, _ROUND),
                round(response.finish_s, _ROUND),
                round(response.ttft_s, _ROUND),
                round(response.queueing_s, _ROUND),
                bool(response.used_kv_cache),
                response.served_by,
                response.served_tier,
                bool(response.failed_over),
                bool(getattr(response, "degraded", False)),
                getattr(response, "degrade_cause", None),
                getattr(response, "retries", 0),
            )
            for response in report.responses
        )
    )
    return (
        responses,
        report.shed,
        report.hard_failures,
        report.kv_served,
        report.text_served,
        report.failovers,
        report.degraded,
        round(report.duration_s, _ROUND),
    )


def check_spec_order_independence(
    spec: "ServingSpec",
    requests: Sequence["ServeRequest"] | None = None,
    *,
    workload=None,
    num_requests: int | None = None,
    seeds: Sequence[int] = (1, 2),
    faults=None,
    codec: "FittedCodec | None" = None,
) -> RaceReport:
    """Replay a spec under perturbed tie-breaks and diff the report digests.

    Pass explicit ``requests`` or a workload generator (+ ``num_requests``);
    generated arrivals are materialized once so every replay sees the same
    stream.  Each replay builds a fresh backend from ``spec``, so stores and
    seeds reset; tie-break order is the only varying input.  The replays share
    one immutable offline codec profile: ``codec`` when given, else the one
    :func:`~repro.serving.engine.profile_codec` keeps for the spec.  ``faults``
    optionally threads a :class:`~repro.faults.FaultSchedule` through each
    replay's driver — chaos runs must be exactly as order-independent as
    healthy ones (retry jitter is keyed on the context, not a shared stream).
    """
    from ..serving.api.backends import build_backend
    from ..serving.api.driver import Driver
    from ..serving.api.types import ServeRequest as _ServeRequest

    if (requests is None) == (workload is None):
        raise ValueError("pass exactly one of requests= or workload=")
    if requests is None:
        if num_requests is None:
            raise ValueError("num_requests is required with a workload generator")
        requests = [
            item
            if isinstance(item, _ServeRequest)
            else _ServeRequest.from_workload(item)
            for item in workload.iter_requests(num_requests)
        ]
    fixed = list(requests)

    def run_with_factory(clock_factory: Callable[[], "SimClock"]) -> tuple:
        built = build_backend(spec, codec=codec)
        driver = Driver(built, list(fixed), faults=faults, simcheck=False)
        built.clock_factory = clock_factory
        report = driver.run()
        return run_report_digest(report)

    return find_order_race(run_with_factory, seeds=seeds)
