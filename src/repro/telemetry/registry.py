"""Labeled metrics primitives and the per-run registry.

Three primitive kinds cover everything the serving stack counts:

* :class:`Counter` — a monotonically increasing total (bytes moved, GPU busy
  seconds, evictions);
* :class:`Gauge` — a sampled level (queue depth); the gauge keeps the last,
  minimum and maximum observed value per label set, because for contention
  analysis the *peak* backlog matters as much as the final one;
* :class:`Histogram` — a distribution (per-request queueing delay); its
  summary reuses the shared :func:`repro.metrics.stats.percentiles` helper so
  telemetry percentiles can never drift from the report percentiles.

All three are **labeled**: ``counter.inc(1, link="node-0")`` and
``counter.inc(1, link="node-1")`` accumulate independently, which is how one
metric name covers a whole fleet of links or GPU schedulers.

A :class:`MetricsRegistry` owns the metrics of one run (get-or-create by
name, kind-checked) and renders them as one plain-dict :meth:`snapshot` that
reports, tests and the JSONL export can serialize directly.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from ..metrics.stats import percentiles

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Canonical form of one label set: sorted ``(key, value)`` pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _label_str(key: LabelKey) -> str:
    """Render a label set the way the snapshot keys it (``""`` when unlabeled)."""
    return ",".join(f"{name}={value}" for name, value in key)


class _Metric:
    """Shared name/help plumbing of the three primitives."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help = help


class Counter(_Metric):
    """A labeled, monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (non-negative) to the label set's total."""
        if amount < 0:
            raise ValueError("counters only go up; amount must be non-negative")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current total of one label set (0.0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict[str, float]:
        return {_label_str(key): value for key, value in sorted(self._values.items())}


class Gauge(_Metric):
    """A labeled sampled level, tracking last / min / max / sample count."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, dict[str, float]] = {}

    def set(self, value: float, **labels: object) -> None:
        """Record the current level of one label set."""
        key = _label_key(labels)
        entry = self._values.get(key)
        if entry is None:
            self._values[key] = {
                "last": float(value),
                "min": float(value),
                "max": float(value),
                "samples": 1,
            }
            return
        entry["last"] = float(value)
        entry["min"] = min(entry["min"], float(value))
        entry["max"] = max(entry["max"], float(value))
        entry["samples"] += 1

    def max(self, **labels: object) -> float:
        """Peak sampled level (0.0 if never set)."""
        entry = self._values.get(_label_key(labels))
        return entry["max"] if entry is not None else 0.0

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {_label_str(key): dict(entry) for key, entry in sorted(self._values.items())}


class Histogram(_Metric):
    """A labeled sample distribution summarized by the shared percentiles.

    By default every observation is kept (exact percentiles).  For
    million-request runs pass ``max_samples`` to bound memory: each label set
    keeps a uniform reservoir of that size (Vitter's Algorithm R), seeded
    from the metric name and label set so summaries are deterministic across
    runs.  Count / mean / max stay exact in reservoir mode — they come from
    running accumulators — only the percentiles are estimated from the
    reservoir.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        qs: Sequence[float] = (50.0, 95.0, 99.0),
        max_samples: int | None = None,
    ) -> None:
        super().__init__(name, help)
        if max_samples is not None and max_samples <= 0:
            raise ValueError("max_samples must be positive (or None for exact)")
        self.qs = tuple(qs)
        self.max_samples = max_samples
        self._samples: dict[LabelKey, list[float]] = {}
        self._observed: dict[LabelKey, int] = {}
        self._sum: dict[LabelKey, float] = {}
        self._max: dict[LabelKey, float] = {}
        self._rngs: dict[LabelKey, random.Random] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation for a label set."""
        key = _label_key(labels)
        value = float(value)
        seen = self._observed.get(key, 0) + 1
        self._observed[key] = seen
        self._sum[key] = self._sum.get(key, 0.0) + value
        current_max = self._max.get(key)
        if current_max is None or value > current_max:
            self._max[key] = value
        samples = self._samples.setdefault(key, [])
        if self.max_samples is None or len(samples) < self.max_samples:
            samples.append(value)
            return
        rng = self._rngs.get(key)
        if rng is None:
            # Seed by identity, not by time: same run -> same reservoir.
            rng = random.Random(f"{self.name}|{_label_str(key)}")
            self._rngs[key] = rng
        slot = rng.randrange(seen)
        if slot < self.max_samples:
            samples[slot] = value

    def summary(self, **labels: object) -> dict[str, float]:
        """Count / mean / max plus the configured percentiles of a label set.

        Zero observations yield an all-zero summary (idle resources must
        snapshot cleanly), mirroring ``summarize_latencies`` on empty input.
        """
        key = _label_key(labels)
        samples = self._samples.get(key, [])
        seen = self._observed.get(key, 0)
        ranks = percentiles(samples, self.qs)
        summary = {
            "count": seen,
            "mean": self._sum.get(key, 0.0) / seen if seen else 0.0,
            "max": self._max.get(key, 0.0),
        }
        for q, value in zip(self.qs, ranks):
            summary[f"p{q:g}"] = value
        return summary

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {
            _label_str(key): self.summary(**dict(key))
            for key in sorted(self._samples)
        }


class MetricsRegistry:
    """The named metrics of one run: get-or-create, kind-checked, snapshotable."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls: type[_Metric], name: str, help: str) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", max_samples: int | None = None
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, max_samples=max_samples)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a histogram")
        return metric

    def snapshot(self) -> dict[str, dict]:
        """All metrics as one plain, JSON-serializable dict.

        Shape: ``{name: {"type": kind, "help": ..., "values": {...}}}`` where
        ``values`` maps rendered label sets (``"link=node-0"``) to totals
        (counters), level stats (gauges) or percentile summaries (histograms).
        """
        return {
            name: {
                "type": metric.kind,
                "help": metric.help,
                "values": metric.snapshot(),
            }
            for name, metric in sorted(self._metrics.items())
        }
