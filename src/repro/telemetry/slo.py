"""SLO objectives, multi-window burn-rate alerting and structural detectors.

The alerting layer reads the windowed series of
:class:`~repro.telemetry.timeseries.TimeSeriesRecorder` and reproduces the
operational story a production on-call would see, on the simulated clock:

* :class:`SLOObjective` — a declarative latency SLO ("99% of requests get
  their first token within 0.5 s"); a request is a *bad event* when its TTFT
  exceeds the threshold (shed arrivals count as bad by default — a refused
  user got no token at all);
* :class:`BurnRateRule` — one Google-SRE-style multi-window burn-rate pair:
  the alert is active while **both** the long- and the short-window burn rate
  (error rate ÷ error budget) exceed the rule's threshold, so a brief blip
  does not page but a real burn fires fast and resolves promptly once the
  short window is clean;
* structural detectors — :class:`QueueDepthBuildup`,
  :class:`HitRatioCollapse` and :class:`ShedStorm` watch the non-latency
  symptoms that precede SLO burns (backlog growth, a cache losing its hits
  after a node death, admission refusing a flood).

Every firing becomes an :class:`Alert` with explicit fire/resolve instants on
the simulated clock (an alert still active when the run ends has
``resolved_at_s=None``).  :class:`AlertEngine` bundles objectives × rules plus
the detectors and evaluates them over a window series in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

from .timeseries import WindowStats

__all__ = [
    "SLOObjective",
    "BurnRateRule",
    "Alert",
    "AlertEngine",
    "Detector",
    "QueueDepthBuildup",
    "HitRatioCollapse",
    "ShedStorm",
    "default_burn_rules",
    "default_detectors",
]


@dataclass(frozen=True)
class SLOObjective:
    """A TTFT latency SLO: ``target`` fraction of requests within ``ttft_s``.

    Example
    -------
    >>> objective = SLOObjective("ttft", ttft_s=1.0, target=0.99)
    >>> round(objective.error_budget, 3)
    0.01
    """

    name: str
    ttft_s: float
    target: float = 0.99
    #: Count shed arrivals as bad events (a refused user missed the SLO too).
    include_shed: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective name must be non-empty")
        if self.ttft_s <= 0:
            raise ValueError("ttft_s must be positive")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")

    @property
    def error_budget(self) -> float:
        """Allowed bad-event fraction (1 - target)."""
        return 1.0 - self.target

    def events(self, window: WindowStats) -> tuple[int, int]:
        """``(bad, total)`` events of one window under this objective."""
        bad = window.violations(self.ttft_s)
        total = window.served
        if self.include_shed:
            bad += window.shed
            total += window.shed
        return bad, total


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate pair (Google SRE workbook, chapter 5).

    Burn rate is the error rate divided by the error budget: burning at 1×
    spends the budget exactly over the SLO period; sustained burn above
    ``max_burn_rate`` on *both* windows means the budget is being consumed
    fast enough to page (long window = significance, short window = still
    happening / prompt resolution).
    """

    name: str
    long_s: float
    short_s: float
    max_burn_rate: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rule name must be non-empty")
        if self.short_s <= 0 or self.long_s < self.short_s:
            raise ValueError("need long_s >= short_s > 0")
        if self.max_burn_rate <= 0:
            raise ValueError("max_burn_rate must be positive")


def default_burn_rules(window_s: float | None = None) -> tuple[BurnRateRule, ...]:
    """The classic fast-burn/slow-burn pair.

    Without a window width this returns the SRE-workbook wall-clock values
    (1 h/5 m at 14.4×, 6 h/30 m at 6×) — right for long traces.  Given the
    recorder's window width it scales the pair to the simulation's time base
    (short window = 1 resp. 6 recorder windows), so second-scale runs alert
    on the same logic.
    """
    if window_s is None:
        return (
            BurnRateRule("fast-burn", long_s=3600.0, short_s=300.0, max_burn_rate=14.4),
            BurnRateRule(
                "slow-burn",
                long_s=21600.0,
                short_s=1800.0,
                max_burn_rate=6.0,
                severity="ticket",
            ),
        )
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    return (
        BurnRateRule(
            "fast-burn", long_s=4.0 * window_s, short_s=window_s, max_burn_rate=8.0
        ),
        BurnRateRule(
            "slow-burn",
            long_s=12.0 * window_s,
            short_s=3.0 * window_s,
            max_burn_rate=2.0,
            severity="ticket",
        ),
    )


@dataclass
class Alert:
    """One fired alert: fire/resolve instants on the simulated clock."""

    name: str
    kind: str
    severity: str
    fired_at_s: float
    resolved_at_s: float | None
    #: Peak of the rule's signal while active (burn rate, depth, drop, sheds).
    peak: float
    details: str = ""


def _collapse_active(
    windows: Sequence[WindowStats],
    active: Sequence[bool],
    signal: Sequence[float],
    *,
    name: str,
    kind: str,
    severity: str,
    details: Callable[[float], str],
) -> list[Alert]:
    """Turn a per-window active flag into fire/resolve :class:`Alert` spans.

    An alert fires at the **end** of the first active window (the instant the
    evaluation that saw the burn runs) and resolves at the end of the first
    inactive window after it; an episode still active at the last window
    stays unresolved.
    """
    alerts: list[Alert] = []
    episode_start: int | None = None
    peak = 0.0
    for i, is_active in enumerate(active):
        if is_active:
            if episode_start is None:
                episode_start = i
                peak = signal[i]
            else:
                peak = max(peak, signal[i])
        elif episode_start is not None:
            alerts.append(
                Alert(
                    name=name,
                    kind=kind,
                    severity=severity,
                    fired_at_s=windows[episode_start].end_s,
                    resolved_at_s=windows[i].end_s,
                    peak=peak,
                    details=details(peak),
                )
            )
            episode_start = None
    if episode_start is not None:
        alerts.append(
            Alert(
                name=name,
                kind=kind,
                severity=severity,
                fired_at_s=windows[episode_start].end_s,
                resolved_at_s=None,
                peak=peak,
                details=details(peak),
            )
        )
    return alerts


@runtime_checkable
class Detector(Protocol):
    """A structural detector: window series in, alerts out."""

    def evaluate(self, windows: Sequence[WindowStats]) -> list[Alert]: ...


@dataclass(frozen=True)
class QueueDepthBuildup:
    """Fires when any resource's queue holds ``min_depth``+ for a sustained run.

    Queue growth is the leading indicator of an overload: it shows before
    TTFT percentiles blow out, because queued requests have not finished yet.
    """

    min_depth: float = 4.0
    consecutive: int = 2
    track_prefix: str = ""
    severity: str = "ticket"

    def evaluate(self, windows: Sequence[WindowStats]) -> list[Alert]:
        depths = []
        for window in windows:
            matching = [
                depth
                for track, depth in window.max_queue_depth.items()
                if track.startswith(self.track_prefix)
            ]
            depths.append(max(matching) if matching else 0.0)
        deep = [depth >= self.min_depth for depth in depths]
        active = []
        run = 0
        for flag in deep:
            run = run + 1 if flag else 0
            active.append(run >= self.consecutive)
        return _collapse_active(
            windows,
            active,
            depths,
            name="queue-depth-buildup",
            kind="queue-depth",
            severity=self.severity,
            details=lambda peak: (
                f"queue depth held >= {self.min_depth:g} for "
                f"{self.consecutive}+ windows (peak {peak:g})"
            ),
        )


@dataclass(frozen=True)
class HitRatioCollapse:
    """Fires when the KV hit ratio drops ``drop`` below its trailing baseline.

    The signature of a node death (or an eviction storm): traffic that was
    served from cache suddenly degrades to text re-prefill.  The baseline is
    the mean hit ratio of the last ``baseline_windows`` busy windows, so slow
    drifts do not fire — collapses do.
    """

    drop: float = 0.3
    baseline_windows: int = 3
    min_served: int = 4
    severity: str = "page"

    def evaluate(self, windows: Sequence[WindowStats]) -> list[Alert]:
        active: list[bool] = []
        drops: list[float] = []
        baseline_pool: list[float] = []
        for window in windows:
            busy = window.served >= self.min_served
            baseline = (
                sum(baseline_pool[-self.baseline_windows :]) / len(baseline_pool[-self.baseline_windows :])
                if baseline_pool
                else None
            )
            is_collapse = (
                busy
                and baseline is not None
                and window.hit_ratio <= baseline - self.drop
            )
            active.append(is_collapse)
            drops.append(
                (baseline - window.hit_ratio) if (busy and baseline is not None) else 0.0
            )
            # Collapsed windows do not poison the baseline: the pre-incident
            # level is what recovery is measured against.
            if busy and not is_collapse:
                baseline_pool.append(window.hit_ratio)
        return _collapse_active(
            windows,
            active,
            drops,
            name="hit-ratio-collapse",
            kind="hit-ratio",
            severity=self.severity,
            details=lambda peak: (
                f"hit ratio fell {peak:.2f} below its trailing baseline"
            ),
        )


@dataclass(frozen=True)
class ShedStorm:
    """Fires when admission sheds a burst: count or offered-fraction based."""

    min_shed: int = 5
    min_ratio: float = 0.5
    severity: str = "page"

    def evaluate(self, windows: Sequence[WindowStats]) -> list[Alert]:
        active = [
            window.shed >= self.min_shed
            or (window.shed > 0 and window.shed_ratio >= self.min_ratio)
            for window in windows
        ]
        return _collapse_active(
            windows,
            active,
            [float(window.shed) for window in windows],
            name="shed-storm",
            kind="shed-storm",
            severity=self.severity,
            details=lambda peak: f"admission shed {peak:g} arrivals in one window",
        )


def default_detectors() -> tuple[Detector, ...]:
    """The standard structural detectors, with their default thresholds."""
    return (QueueDepthBuildup(), HitRatioCollapse(), ShedStorm())


class AlertEngine:
    """Evaluates SLO burn-rate rules plus structural detectors over a series.

    Parameters
    ----------
    objectives:
        The declarative SLOs; each is checked against every rule.
    rules:
        Burn-rate window pairs; ``None`` picks :func:`default_burn_rules`
        scaled to the series' window width at evaluation time.
    detectors:
        Structural detectors; ``None`` picks :func:`default_detectors`, and
        ``()`` disables them.

    Example
    -------
    >>> engine = AlertEngine([SLOObjective("ttft", ttft_s=1.0, target=0.99)])
    >>> alerts = engine.evaluate(recorder.windows())  # doctest: +SKIP
    """

    def __init__(
        self,
        objectives: Sequence[SLOObjective] = (),
        rules: Sequence[BurnRateRule] | None = None,
        detectors: Sequence[Detector] | None = None,
    ) -> None:
        self.objectives = tuple(objectives)
        self.rules = tuple(rules) if rules is not None else None
        self.detectors = (
            tuple(detectors) if detectors is not None else default_detectors()
        )

    def evaluate(self, windows: Sequence[WindowStats]) -> list[Alert]:
        """All alerts of one window series, ordered by fire instant."""
        windows = list(windows)
        alerts: list[Alert] = []
        if windows:
            width = windows[0].width_s
            rules = self.rules if self.rules is not None else default_burn_rules(width)
            for objective in self.objectives:
                events = [objective.events(window) for window in windows]
                for rule in rules:
                    alerts.extend(
                        self._burn_alerts(objective, rule, windows, events, width)
                    )
            for detector in self.detectors:
                alerts.extend(detector.evaluate(windows))
        alerts.sort(key=lambda alert: (alert.fired_at_s, alert.name))
        return alerts

    @staticmethod
    def _burn_alerts(
        objective: SLOObjective,
        rule: BurnRateRule,
        windows: Sequence[WindowStats],
        events: Sequence[tuple[int, int]],
        width_s: float,
    ) -> list[Alert]:
        n_short = max(1, int(math.ceil(rule.short_s / width_s)))
        n_long = max(n_short, int(math.ceil(rule.long_s / width_s)))

        def burn(upto: int, span: int) -> float:
            bad = total = 0
            for bad_i, total_i in events[max(0, upto - span + 1) : upto + 1]:
                bad += bad_i
                total += total_i
            if total == 0:
                return 0.0
            return (bad / total) / objective.error_budget

        active: list[bool] = []
        signal: list[float] = []
        for i in range(len(windows)):
            long_burn = burn(i, n_long)
            short_burn = burn(i, n_short)
            active.append(
                long_burn >= rule.max_burn_rate and short_burn >= rule.max_burn_rate
            )
            signal.append(max(long_burn, short_burn))
        return _collapse_active(
            windows,
            active,
            signal,
            name=f"{objective.name}:{rule.name}",
            kind="burn-rate",
            severity=rule.severity,
            details=lambda peak: (
                f"TTFT > {objective.ttft_s:g}s burned the {objective.target:.0%} "
                f"budget at {peak:.1f}x over {rule.long_s:g}s/{rule.short_s:g}s windows"
            ),
        )
