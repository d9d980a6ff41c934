"""Full-stack simulation telemetry: metrics, spans and timeline export.

The package has three layers:

* :mod:`~repro.telemetry.registry` — labeled Counter / Gauge / Histogram
  primitives and the per-run :class:`MetricsRegistry`;
* :mod:`~repro.telemetry.trace` — the simulated-clock :class:`Tracer`
  recording nested per-request :class:`Span` trees, instant events and
  counter samples;
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON (load the file at
  ui.perfetto.dev) and a structured JSONL event log;
* :mod:`~repro.telemetry.timeseries` — tumbling simulated-time windows
  (:class:`TimeSeriesRecorder` / :class:`WindowStats`) that make degradation
  time-local while recombining exactly to the whole-run report;
* :mod:`~repro.telemetry.slo` — declarative :class:`SLOObjective` SLOs, the
  multi-window burn-rate :class:`AlertEngine` and structural detectors;
* :mod:`~repro.telemetry.dashboard` — a dependency-free self-contained HTML
  dashboard (:func:`render_dashboard` / :func:`write_dashboard`) plus a
  two-run diff view.

Typical use::

    from repro.serving.api import ServingSpec, serve
    from repro.telemetry import SLOObjective, Tracer, write_dashboard

    tracer = Tracer()
    report = serve(spec, workload, tracer=tracer,
                   slos=[SLOObjective("ttft", ttft_s=0.5)])
    write_dashboard("out/dashboard.html", report.timeseries,
                    alerts=report.alerts)
"""

from .. import _lazy_exports

__all__ = [
    "COMPUTE",
    "DECODE",
    "QUEUEING",
    "TRANSFER",
    "Alert",
    "AlertEngine",
    "BurnRateRule",
    "Counter",
    "CounterSample",
    "Gauge",
    "Histogram",
    "HitRatioCollapse",
    "InstantEvent",
    "MetricsRegistry",
    "QueueDepthBuildup",
    "SLOObjective",
    "ShedStorm",
    "Span",
    "TimeSeriesRecorder",
    "Tracer",
    "WindowStats",
    "auto_window_s",
    "default_burn_rules",
    "default_detectors",
    "emit_timeline_spans",
    "iter_jsonl_events",
    "render_dashboard",
    "render_diff_dashboard",
    "write_chrome_trace",
    "write_dashboard",
    "write_jsonl",
]

# Names resolve on first use: a run without a tracer never loads the trace,
# registry, export or dashboard modules.
__getattr__ = _lazy_exports(
    __name__,
    {
        ".dashboard": ("render_dashboard", "render_diff_dashboard", "write_dashboard"),
        ".export": (
            "iter_jsonl_events",
            "write_chrome_trace",
            "write_jsonl",
        ),
        ".registry": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
        ".slo": (
            "Alert",
            "AlertEngine",
            "BurnRateRule",
            "HitRatioCollapse",
            "QueueDepthBuildup",
            "ShedStorm",
            "SLOObjective",
            "default_burn_rules",
            "default_detectors",
        ),
        ".timeseries": ("TimeSeriesRecorder", "WindowStats", "auto_window_s"),
        ".trace": (
            "COMPUTE",
            "DECODE",
            "QUEUEING",
            "TRANSFER",
            "CounterSample",
            "InstantEvent",
            "Span",
            "Tracer",
            "emit_timeline_spans",
        ),
    },
)
