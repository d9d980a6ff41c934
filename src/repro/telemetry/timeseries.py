"""Windowed time series over a run's telemetry.

A whole-run :class:`~repro.serving.api.types.RunReport` answers "how did the
run go on average"; it cannot show the failure-instant TTFT spike, the
hit-ratio collapse after a node dies, or a shed storm building up.  The
:class:`TimeSeriesRecorder` makes degradation **time-local**: it aggregates
per-request samples and resource activity into tumbling simulated-time
windows (``[k·w, (k+1)·w)`` keyed by arrival time), each summarized as one
:class:`WindowStats` — arrival rate, shed count, TTFT count/mean/percentiles,
hot/cold/miss traffic, per-resource utilization and peak queue depth.

Exact-consistency guarantees (asserted by the tests):

* with a **single window** covering the whole run, the window's aggregates
  equal the ``RunReport`` summary exactly — same counts, same hit ratios, and
  bit-identical TTFT mean/percentiles, because samples are kept in recording
  order and summarized through the shared
  :func:`repro.metrics.stats.percentiles` helper;
* with **multiple windows**, the per-window counts sum to the whole-run
  totals, and concatenating the windows' samples reproduces the whole-run
  percentiles (percentiles are order-insensitive).

The recorder has two front doors: :meth:`TimeSeriesRecorder.from_run` builds
from served :class:`~repro.serving.api.types.ServeResponse` objects (plus
shed arrival times and, optionally, a tracer for resource lanes), which is
what the serving driver threads into ``RunReport.timeseries``;
:meth:`TimeSeriesRecorder.from_tracer` rebuilds the same series from a
:class:`~repro.telemetry.trace.Tracer` alone (root request spans, shed
instants, resource spans and queue-depth samples), which is what the
experiment CLI's ``--dashboard-out`` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..metrics.stats import percentiles

__all__ = ["WindowStats", "TimeSeriesRecorder", "auto_window_s"]

#: Track prefixes that do not describe a contended resource: per-request
#: swimlanes and the driver's bookkeeping tracks.  Everything else (links,
#: GPU schedulers, storage nodes, tier channels) gets a utilization lane.
_NON_RESOURCE_PREFIXES = ("request:", "ingest", "admission", "cluster")

#: Percentile ranks every window summarizes (p95 rides along so a single
#: window recombines to the ``RunReport``'s p50/p95/p99 exactly).
DEFAULT_QS = (50.0, 90.0, 95.0, 99.0)


def auto_window_s(duration_s: float, target_windows: int = 60) -> float:
    """A 1/2/5-stepped window width giving roughly ``target_windows`` windows.

    Dashboards want enough windows to show dynamics but few enough that each
    holds a meaningful sample; snapping to 1/2/5 × 10^k keeps the time axis
    labels clean.
    """
    if target_windows <= 0:
        raise ValueError("target_windows must be positive")
    if duration_s <= 0:
        return 1.0
    raw = duration_s / target_windows
    exponent = math.floor(math.log10(raw))
    base = raw / 10**exponent
    for nice in (1.0, 2.0, 5.0, 10.0):
        if base <= nice:
            return nice * 10**exponent
    return 10.0 * 10**exponent  # pragma: no cover - base is always <= 10


@dataclass
class WindowStats:
    """Aggregates of one tumbling window ``[start_s, end_s)``."""

    index: int
    start_s: float
    end_s: float
    #: Offered arrivals in the window: served + shed.
    arrivals: int = 0
    served: int = 0
    kv_served: int = 0
    text_served: int = 0
    hot_served: int = 0
    cold_served: int = 0
    shed: int = 0
    #: Per-request TTFTs of the window, in recording order (kept raw so
    #: percentiles are exact, never re-aggregated approximations).
    ttft_samples: list[float] = field(default_factory=list, repr=False)
    #: Busy seconds per resource track within the window.
    busy_s: dict[str, float] = field(default_factory=dict)
    #: Peak sampled queue depth per resource track within the window.
    max_queue_depth: dict[str, float] = field(default_factory=dict)
    #: GPU fleet size at the end of the window (last ``pool_size`` sample;
    #: ``None`` when the run had no worker pool or the window saw no sample).
    pool_size: float | None = None

    # ------------------------------------------------------------------- rates
    @property
    def width_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def arrival_rate_rps(self) -> float:
        return self.arrivals / self.width_s if self.width_s > 0 else 0.0

    @property
    def shed_ratio(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def hit_ratio(self) -> float:
        return self.kv_served / self.served if self.served else 0.0

    @property
    def hot_hit_ratio(self) -> float:
        return self.hot_served / self.served if self.served else 0.0

    @property
    def cold_hit_ratio(self) -> float:
        return self.cold_served / self.served if self.served else 0.0

    @property
    def miss_ratio(self) -> float:
        """Fraction of served requests that degraded to the text path."""
        return self.text_served / self.served if self.served else 0.0

    # -------------------------------------------------------------------- TTFT
    @property
    def ttft_count(self) -> int:
        return len(self.ttft_samples)

    @property
    def ttft_mean_s(self) -> float:
        if not self.ttft_samples:
            return 0.0
        return float(np.asarray(self.ttft_samples, dtype=np.float64).mean())

    @property
    def ttft_max_s(self) -> float:
        return max(self.ttft_samples) if self.ttft_samples else 0.0

    def ttft_percentile(self, q: float) -> float:
        """One TTFT percentile of the window (0.0 when nothing was served)."""
        return percentiles(self.ttft_samples, (q,))[0]

    def violations(self, threshold_s: float) -> int:
        """Served requests whose TTFT exceeded ``threshold_s``."""
        return sum(1 for ttft in self.ttft_samples if ttft > threshold_s)

    # --------------------------------------------------------------- resources
    def utilization(self, track: str) -> float:
        """Busy fraction of one resource track over the window."""
        if self.width_s <= 0:
            return 0.0
        return self.busy_s.get(track, 0.0) / self.width_s

    def summary(self, qs: Sequence[float] = DEFAULT_QS) -> dict[str, Any]:
        """The window as one plain JSON-serializable dict."""
        out: dict[str, Any] = {
            "index": self.index,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "arrivals": self.arrivals,
            "served": self.served,
            "kv_served": self.kv_served,
            "text_served": self.text_served,
            "hot_served": self.hot_served,
            "cold_served": self.cold_served,
            "shed": self.shed,
            "arrival_rate_rps": self.arrival_rate_rps,
            "hit_ratio": self.hit_ratio,
            "ttft_count": self.ttft_count,
            "ttft_mean_s": self.ttft_mean_s,
            "ttft_max_s": self.ttft_max_s,
            "utilization": {
                track: self.utilization(track) for track in sorted(self.busy_s)
            },
            "max_queue_depth": dict(sorted(self.max_queue_depth.items())),
        }
        if self.pool_size is not None:
            out["pool_size"] = self.pool_size
        ranks = percentiles(self.ttft_samples, qs)
        for q, value in zip(qs, ranks):
            out[f"ttft_p{q:g}_s"] = value
        return out


class TimeSeriesRecorder:
    """Aggregates request/shed/resource events into tumbling windows.

    Feed it events (`record_response` / `record_shed` / `record_busy` /
    `record_queue_depth`) or build it whole from a finished run
    (:meth:`from_run`) or a tracer (:meth:`from_tracer`); then read
    :meth:`windows` (a contiguous series — quiet windows are materialized
    empty, not skipped) and :meth:`totals` (the whole-run recombination).

    Example
    -------
    >>> recorder = TimeSeriesRecorder.from_tracer(tracer, window_s=0.5)  # doctest: +SKIP
    >>> [window.ttft_p95_s for window in recorder.windows()]  # doctest: +SKIP
    """

    def __init__(self, window_s: float, *, qs: Sequence[float] = DEFAULT_QS) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        self.qs = tuple(qs)
        self._windows: dict[int, WindowStats] = {}
        self._max_index = -1

    # ------------------------------------------------------------------ window
    def window_index(self, at_s: float) -> int:
        """The tumbling-window index of a timestamp (clamped at zero)."""
        if at_s <= 0:
            return 0
        return int(at_s // self.window_s)

    def _window(self, index: int) -> WindowStats:
        window = self._windows.get(index)
        if window is None:
            window = WindowStats(
                index=index,
                start_s=index * self.window_s,
                end_s=(index + 1) * self.window_s,
            )
            self._windows[index] = window
            if index > self._max_index:
                self._max_index = index
        return window

    def extend_to(self, at_s: float) -> None:
        """Ensure the series covers ``[0, at_s)`` (for trailing quiet time)."""
        if at_s <= 0:
            return
        self._window(max(int(math.ceil(at_s / self.window_s)) - 1, 0))

    # ------------------------------------------------------------------ record
    def record_request(
        self,
        arrival_s: float,
        ttft_s: float,
        *,
        used_kv_cache: bool,
        served_tier: str | None = None,
    ) -> None:
        """One served request, keyed to its arrival window."""
        window = self._window(self.window_index(arrival_s))
        window.arrivals += 1
        window.served += 1
        window.ttft_samples.append(float(ttft_s))
        if used_kv_cache:
            window.kv_served += 1
        else:
            window.text_served += 1
        if served_tier == "hot":
            window.hot_served += 1
        elif served_tier == "cold":
            window.cold_served += 1

    def record_response(self, response) -> None:
        """One :class:`~repro.serving.api.types.ServeResponse` (duck-typed)."""
        self.record_request(
            response.arrival_s,
            response.ttft_s,
            used_kv_cache=response.used_kv_cache,
            served_tier=getattr(response, "served_tier", None),
        )

    def record_shed(self, at_s: float) -> None:
        """One arrival the admission policy refused."""
        window = self._window(self.window_index(at_s))
        window.arrivals += 1
        window.shed += 1

    def record_busy(self, track: str, start_s: float, dur_s: float) -> None:
        """One busy interval of a resource, split across window boundaries."""
        if dur_s <= 0:
            return
        cursor = max(start_s, 0.0)
        end = max(start_s, 0.0) + dur_s
        while cursor < end:
            index = self.window_index(cursor)
            window = self._window(index)
            if window.end_s <= cursor:
                # float division floored the cursor into the window it ends:
                # the interval from here on belongs to the next window.
                window = self._window(index + 1)
            slice_end = min(end, window.end_s)
            window.busy_s[track] = window.busy_s.get(track, 0.0) + (slice_end - cursor)
            cursor = slice_end

    def record_queue_depth(self, track: str, at_s: float, value: float) -> None:
        """One queue-depth sample of a resource track."""
        window = self._window(self.window_index(at_s))
        current = window.max_queue_depth.get(track)
        if current is None or value > current:
            window.max_queue_depth[track] = float(value)

    def record_pool_size(self, at_s: float, value: float) -> None:
        """One GPU-fleet size sample (samples arrive in time order, so the
        last one of a window is the size the window ended at)."""
        window = self._window(self.window_index(at_s))
        window.pool_size = float(value)

    # ----------------------------------------------------------------- queries
    def windows(self) -> list[WindowStats]:
        """The contiguous window series from t=0 through the last event."""
        if self._max_index < 0:
            return []
        return [self._window(index) for index in range(self._max_index + 1)]

    def resource_tracks(self) -> list[str]:
        """Every resource track any window saw, sorted."""
        tracks: set[str] = set()
        for window in self._windows.values():
            tracks.update(window.busy_s)
            tracks.update(window.max_queue_depth)
        return sorted(tracks)

    @property
    def duration_s(self) -> float:
        """Extent of the covered series (end of the last window)."""
        return (self._max_index + 1) * self.window_s if self._max_index >= 0 else 0.0

    def totals(self) -> dict[str, Any]:
        """Recombine every window into whole-run aggregates.

        The TTFT summary concatenates the windows' raw samples (in window
        order, which for a single window is recording order) and summarizes
        them through the same shared percentile helper the ``RunReport``
        uses — so a single window covering the run matches the report
        exactly, and multi-window percentiles match because percentiles are
        order-insensitive.
        """
        windows = self.windows()
        ttfts: list[float] = []
        for window in windows:
            ttfts.extend(window.ttft_samples)
        served = sum(w.served for w in windows)
        shed = sum(w.shed for w in windows)
        kv = sum(w.kv_served for w in windows)
        arr = np.asarray(ttfts, dtype=np.float64)
        p50, p95, p99 = percentiles(ttfts, (50.0, 95.0, 99.0))
        return {
            "num_requests": served + shed,
            "served": served,
            "shed": shed,
            "kv_served": kv,
            "text_served": sum(w.text_served for w in windows),
            "hot_served": sum(w.hot_served for w in windows),
            "cold_served": sum(w.cold_served for w in windows),
            "hit_ratio": kv / served if served else 0.0,
            "hot_hit_ratio": (
                sum(w.hot_served for w in windows) / served if served else 0.0
            ),
            "cold_hit_ratio": (
                sum(w.cold_served for w in windows) / served if served else 0.0
            ),
            "ttft_count": len(ttfts),
            "ttft_mean_s": float(arr.mean()) if arr.size else 0.0,
            "ttft_max_s": float(arr.max()) if arr.size else 0.0,
            "ttft_p50_s": p50,
            "ttft_p95_s": p95,
            "ttft_p99_s": p99,
        }

    # ------------------------------------------------------------ construction
    @classmethod
    def from_run(
        cls,
        responses: Sequence,
        *,
        window_s: float,
        shed_times: Sequence[float] = (),
        tracer=None,
        duration_s: float | None = None,
        qs: Sequence[float] = DEFAULT_QS,
    ) -> "TimeSeriesRecorder":
        """Build the series a serving run produced.

        ``responses`` are recorded in the given order (the consistency
        guarantee relies on it); ``shed_times`` are the arrival instants of
        refused requests; ``tracer`` (optional) contributes the resource
        lanes; ``duration_s`` extends trailing quiet time.
        """
        recorder = cls(window_s, qs=qs)
        for response in responses:
            recorder.record_response(response)
        for at_s in shed_times:
            recorder.record_shed(at_s)
        if tracer is not None:
            recorder._record_tracer_resources(tracer)
        if duration_s is not None:
            recorder.extend_to(duration_s)
        return recorder

    @classmethod
    def from_tracer(
        cls,
        tracer,
        *,
        window_s: float,
        qs: Sequence[float] = DEFAULT_QS,
    ) -> "TimeSeriesRecorder":
        """Rebuild the series from a tracer alone (no responses needed).

        Served requests come from the root ``request``-category spans (start
        is the arrival, duration the TTFT, hit/tier from the span
        annotations); sheds from the driver's ``shed`` instants; resource
        lanes from the resource-track spans and queue-depth samples.
        """
        recorder = cls(window_s, qs=qs)
        for span in tracer.spans:
            if span.parent is None and span.category == "request":
                tier = span.args.get("tier")
                if tier is None:
                    tier = span.args.get("served_tier")
                recorder.record_request(
                    span.start_s,
                    span.dur_s,
                    used_kv_cache=bool(span.args.get("used_kv_cache", True)),
                    served_tier=tier,
                )
        for instant in tracer.instants:
            if instant.name == "shed":
                recorder.record_shed(instant.at_s)
        recorder._record_tracer_resources(tracer)
        recorder.extend_to(getattr(tracer, "now", 0.0))
        return recorder

    def _record_tracer_resources(self, tracer) -> None:
        for span in tracer.spans:
            if span.dur_s > 0 and _is_resource_track(span.track):
                self.record_busy(span.track, span.start_s, span.dur_s)
        for sample in tracer.samples:
            if sample.name == "pool_size":
                # Fleet-size counter samples are a series of their own, not a
                # queue depth of the "gpu-pool" track.
                self.record_pool_size(sample.at_s, sample.value)
            elif _is_resource_track(sample.track):
                self.record_queue_depth(sample.track, sample.at_s, sample.value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeSeriesRecorder(window_s={self.window_s}, "
            f"windows={self._max_index + 1})"
        )


def _is_resource_track(track: str) -> bool:
    return not any(track.startswith(prefix) for prefix in _NON_RESOURCE_PREFIXES)
