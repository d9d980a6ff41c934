"""Runtime sanitizers for the event simulation.

Where :mod:`repro.simcheck.lint` catches determinism hazards in source text,
this module catches them at run time:

* :class:`ClockSanitizer` — a :class:`~repro.serving.concurrent.events.SimClock`
  that records every past-time schedule (the base clock silently clamps them)
  and asserts ``now`` never moves backwards while events fire.  With a
  ``perturb_seed`` it also randomises same-timestamp tie-break order, which the
  race detector (:mod:`repro.simcheck.race`) uses to expose order-dependent
  results.
* :class:`SimcheckMonitor` — created by the :class:`~repro.serving.api.driver.Driver`
  when ``simcheck=`` is enabled; hands sanitized clocks to the event-driven
  backends, then validates conservation invariants on the finished run
  (:mod:`repro.simcheck.invariants`) and either raises :class:`SimcheckError`
  (strict) or attaches the findings to ``report.simcheck``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..serving.concurrent.events import SimClock

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..serving.api.types import RunReport
    from ..telemetry.trace import Tracer

__all__ = [
    "SimcheckError",
    "SimcheckViolation",
    "PastSchedule",
    "ClockSanitizer",
    "SimcheckConfig",
    "SimcheckReport",
    "SimcheckMonitor",
]


class SimcheckError(RuntimeError):
    """A simulation invariant was violated with strict sanitizers enabled."""


@dataclass(frozen=True)
class SimcheckViolation:
    """One invariant failure found by the monitor."""

    check: str
    message: str

    def format(self) -> str:
        return f"[{self.check}] {self.message}"


@dataclass(frozen=True)
class PastSchedule:
    """Diagnostic record of one schedule() call that asked for the past."""

    requested_s: float
    now_s: float

    @property
    def slip_s(self) -> float:
        """How far in the past the event was requested."""
        return self.now_s - self.requested_s


class ClockSanitizer(SimClock):
    """A :class:`SimClock` that turns silent clamps into diagnostics.

    Parameters
    ----------
    strict:
        Raise :class:`SimcheckError` immediately on a past-time schedule
        instead of just recording it.
    perturb_seed:
        When set, same-timestamp events fire in a seeded-random order instead
        of scheduling (FIFO) order.  A simulation whose results change under
        perturbation depends on tie-break order — the exact hazard the race
        detector hunts.
    """

    def __init__(self, strict: bool = False, perturb_seed: int | None = None) -> None:
        super().__init__()
        self.strict = strict
        self.past_schedules: list[PastSchedule] = []
        self._perturb_rng = (
            random.Random(perturb_seed) if perturb_seed is not None else None
        )

    def _tie_break(self):
        seq = super()._tie_break()
        if self._perturb_rng is None:
            return seq
        # The random draw leads the key so equal-time events shuffle; the seq
        # tail keeps the key unique and the heap comparison total.
        return (self._perturb_rng.random(), seq)

    def schedule(self, at: float, callback: Callable[[], None]) -> None:
        if at < self._now:
            self.past_schedules.append(PastSchedule(requested_s=at, now_s=self._now))
            if self.strict:
                raise SimcheckError(
                    f"schedule at t={at:.9f} requested in the past "
                    f"(now={self._now:.9f}); simulated causality violated"
                )
        super().schedule(at, callback)

    def run(self) -> float:
        """Drain the heap, asserting time never moves backwards."""
        while self._heap:
            at, _, callback = heapq.heappop(self._heap)
            if at < self._now:
                raise SimcheckError(
                    f"event loop popped t={at:.9f} after reaching "
                    f"now={self._now:.9f}; clock is not monotonic"
                )
            self._now = at
            callback()
        return self._now


@dataclass(frozen=True)
class SimcheckConfig:
    """What the runtime sanitizers enforce.

    ``strict`` raises :class:`SimcheckError` when any check fails; otherwise
    findings are only attached to ``RunReport.simcheck``.  ``perturb_seed``
    randomises same-timestamp tie-breaks (used by the race detector — leave
    ``None`` for normal sanitized runs).
    """

    strict: bool = True
    check_clock: bool = True
    check_spans: bool = True
    check_gauges: bool = True
    check_capacity: bool = True
    perturb_seed: int | None = None


@dataclass
class SimcheckReport:
    """Outcome of one sanitized run, attached as ``RunReport.simcheck``."""

    checks_run: list[str] = field(default_factory=list)
    violations: list[SimcheckViolation] = field(default_factory=list)
    clocks: int = 0
    past_schedules: int = 0
    spans_matched: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        if self.ok:
            return (
                f"simcheck ok: {', '.join(self.checks_run) or 'no checks'} "
                f"({self.clocks} clock(s), {self.spans_matched} span tree(s))"
            )
        lines = [f"simcheck found {len(self.violations)} violation(s):"]
        lines.extend(f"  {violation.format()}" for violation in self.violations)
        return "\n".join(lines)


class SimcheckMonitor:
    """Per-run sanitizer state threaded from the driver into the backends."""

    def __init__(self, config: SimcheckConfig | None = None) -> None:
        self.config = config or SimcheckConfig()
        self.clocks: list[ClockSanitizer] = []

    def make_clock(self) -> ClockSanitizer:
        """Clock factory handed to the event-driven simulator."""
        clock = ClockSanitizer(
            strict=False, perturb_seed=self._next_perturb_seed()
        )
        self.clocks.append(clock)
        return clock

    def _next_perturb_seed(self) -> int | None:
        if self.config.perturb_seed is None:
            return None
        # Each segment/backend run gets a distinct but deterministic seed.
        return self.config.perturb_seed + len(self.clocks)

    def finalize(
        self,
        report: "RunReport",
        backend: object = None,
        tracer: "Tracer | None" = None,
    ) -> SimcheckReport:
        """Validate invariants on the finished run and attach the findings.

        Raises :class:`SimcheckError` when strict and anything failed.
        """
        from . import invariants

        result = SimcheckReport(clocks=len(self.clocks))
        config = self.config
        if config.check_clock:
            result.checks_run.append("clock")
            for clock in self.clocks:
                result.past_schedules += len(clock.past_schedules)
                result.violations.extend(invariants.check_clock(clock))
        traced = tracer is not None
        if traced and config.check_gauges:
            result.checks_run.append("gauges")
            result.violations.extend(
                invariants.check_tracer_tracks(
                    tracer,
                    segment_starts_s=getattr(report, "segment_boundary_times_s", ()),
                )
            )
        if traced and config.check_spans:
            result.checks_run.append("spans")
            matched, span_violations = invariants.check_span_breakdowns(
                tracer, report.responses
            )
            result.spans_matched = matched
            result.violations.extend(span_violations)
        if config.check_capacity and backend is not None:
            result.checks_run.append("capacity")
            result.violations.extend(invariants.check_store_capacity(backend))
        report.simcheck = result
        if config.strict and not result.ok:
            raise SimcheckError(result.format())
        return result
