"""Simulated-clock tracing: spans, instant events and counter samples.

A :class:`Tracer` records what happened *when* on the simulation clock:

* :class:`Span` — a named interval on a track (one request's transfer, one
  batched GPU launch).  Spans nest: a request's root span owns child spans
  for admission wait, link wait, transfer, GPU-queue wait, decode and
  compute.  Durations are stored explicitly (not derived from endpoints), so
  a span built from the simulator's recorded wait equals that wait exactly —
  the TTFT-consistency tests rely on this.
* instant events — point-in-time markers (an eviction, a demotion, a
  promotion, a failover, a shed arrival);
* counter samples — a time series of a level (link/GPU queue depth), which
  the Chrome-trace export renders as counter tracks.

Tracks are plain strings (``"gpu"``, ``"link:node-0"``, ``"request:3"``);
the exporter maps them to Perfetto process/thread rows.  The tracer also owns
a :class:`~repro.telemetry.registry.MetricsRegistry`, so one object carries a
run's full telemetry.

Untraced runs pass ``tracer=None``: every instrumentation site guards on
``tracer is not None`` before building any event, so the untraced hot path
pays a single identity test and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .registry import MetricsRegistry

__all__ = [
    "QUEUEING",
    "TRANSFER",
    "DECODE",
    "COMPUTE",
    "Span",
    "InstantEvent",
    "CounterSample",
    "Tracer",
    "emit_timeline_spans",
]

#: Span categories mirroring the TTFT decomposition; the consistency tests
#: sum span durations per category and compare against the breakdown fields.
QUEUEING = "queueing"
TRANSFER = "transfer"
DECODE = "decode"
COMPUTE = "compute"


@dataclass
class Span:
    """One named interval on one track, possibly with nested children."""

    name: str
    track: str
    start_s: float
    dur_s: float = 0.0
    category: str = ""
    request_id: int | None = None
    args: dict[str, Any] = field(default_factory=dict)
    parent: "Span | None" = None
    children: list["Span"] = field(default_factory=list)

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s

    def end(self, at_s: float) -> "Span":
        """Close the span at ``at_s`` (clamped so durations stay non-negative)."""
        self.dur_s = max(at_s - self.start_s, 0.0)
        return self

    def annotate(self, **args: Any) -> "Span":
        self.args.update(args)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class InstantEvent:
    """A point-in-time marker on a track (eviction, failover, shed, ...)."""

    name: str
    track: str
    at_s: float
    category: str = ""
    args: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterSample:
    """One sample of a level (queue depth) on a track's counter series."""

    name: str
    track: str
    at_s: float
    value: float


class Tracer:
    """Collects spans, instants and counter samples on the simulated clock.

    The tracer holds a soft clock (:attr:`now`) that callers outside the
    event simulation (the driver, storage hooks) advance to the arrival time
    they are processing, so un-simulated events (ingests, evictions during an
    ingest) land at a meaningful point on the timeline.  Inside the event
    simulation, emitters pass explicit times read off the
    :class:`~repro.serving.concurrent.events.SimClock`.

    Example
    -------
    >>> tracer = Tracer()
    >>> report = serve(spec, requests=requests, tracer=tracer)  # doctest: +SKIP
    >>> tracer.spans_for_request(0)  # doctest: +SKIP
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self.samples: list[CounterSample] = []
        self.now = 0.0
        self._tracks: dict[str, None] = {}
        self._next_request_id = 0

    # ------------------------------------------------------------------- clock
    def advance_to(self, at_s: float) -> None:
        """Move the soft clock forward (never backward)."""
        if at_s > self.now:
            self.now = at_s

    def new_request_id(self) -> int:
        """Claim the next run-unique request id (stable across segments)."""
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id

    # ------------------------------------------------------------------ tracks
    def register_track(self, track: str) -> None:
        self._tracks.setdefault(track, None)

    @property
    def tracks(self) -> list[str]:
        """Every track ever written to, in first-use order."""
        return list(self._tracks)

    # ------------------------------------------------------------------- emits
    def span(
        self,
        name: str,
        *,
        track: str,
        start_s: float | None = None,
        dur_s: float | None = None,
        end_s: float | None = None,
        category: str = "",
        request_id: int | None = None,
        parent: Span | None = None,
        **args: Any,
    ) -> Span:
        """Record a span; pass ``dur_s`` (authoritative) or ``end_s``."""
        start = self.now if start_s is None else start_s
        if dur_s is None:
            dur_s = max(end_s - start, 0.0) if end_s is not None else 0.0
        if dur_s < 0:
            raise ValueError("span durations must be non-negative")
        span = Span(
            name=name,
            track=track,
            start_s=start,
            dur_s=dur_s,
            category=category,
            request_id=request_id if request_id is not None else (
                parent.request_id if parent is not None else None
            ),
            args=dict(args),
            parent=parent,
        )
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        self.register_track(track)
        return span

    def instant(
        self,
        name: str,
        *,
        track: str,
        at_s: float | None = None,
        category: str = "",
        **args: Any,
    ) -> InstantEvent:
        event = InstantEvent(
            name=name,
            track=track,
            at_s=self.now if at_s is None else at_s,
            category=category,
            args=dict(args),
        )
        self.instants.append(event)
        self.register_track(track)
        return event

    def sample(
        self, name: str, value: float, *, track: str, at_s: float | None = None
    ) -> None:
        self.samples.append(
            CounterSample(
                name=name,
                track=track,
                at_s=self.now if at_s is None else at_s,
                value=float(value),
            )
        )
        self.register_track(track)

    # ----------------------------------------------------------------- queries
    def spans_on(self, track: str) -> list[Span]:
        return [span for span in self.spans if span.track == track]

    def spans_for_request(self, request_id: int) -> list[Span]:
        return [span for span in self.spans if span.request_id == request_id]

    def root_spans(self) -> list[Span]:
        """Spans with no parent (one per traced request, plus resource spans)."""
        return [span for span in self.spans if span.parent is None]

    def find_spans(self, name: str | None = None, category: str | None = None) -> list[Span]:
        return [
            span
            for span in self.spans
            if (name is None or span.name == name)
            and (category is None or span.category == category)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self.spans)}, instants={len(self.instants)}, "
            f"samples={len(self.samples)}, tracks={len(self._tracks)})"
        )


# --------------------------------------------------------------------- helpers
def emit_timeline_spans(
    tracer: Tracer,
    timeline,
    *,
    label: str,
    request_id: int | None = None,
    tier_config: str = "cold-tier",
) -> Span:
    """Build one request's span tree from an event-simulator timeline.

    ``timeline`` is duck-typed against
    :class:`~repro.serving.concurrent.simulator.RequestTimeline` (this module
    must not import the serving package).  Child span durations are copied
    from the recorded waits/durations, so summing them per category
    reproduces the request's ``QueueingTTFTBreakdown`` components exactly.
    """
    rid = tracer.new_request_id() if request_id is None else request_id
    track = f"request:{rid}"
    root = tracer.span(
        f"request {label}",
        track=track,
        start_s=timeline.arrival_s,
        dur_s=timeline.finish_s - timeline.arrival_s,
        category="request",
        request_id=rid,
        context_id=label,
    )
    if timeline.admission_wait_s > 0:
        tracer.span(
            "admission wait",
            track=track,
            start_s=timeline.arrival_s,
            dur_s=timeline.admission_wait_s,
            category=QUEUEING,
            parent=root,
        )
    for stage in timeline.stages:
        if stage.link_wait_s > 0:
            tracer.span(
                "link wait",
                track=track,
                start_s=stage.enqueued_s,
                dur_s=stage.link_wait_s,
                category=QUEUEING,
                parent=root,
                config=stage.config,
            )
        transfer_dur = stage.transfer_end_s - stage.transfer_start_s
        if stage.num_bytes > 0:
            name = "tier read" if stage.config == tier_config else f"transfer {stage.config}"
            tracer.span(
                name,
                track=track,
                start_s=stage.transfer_start_s,
                dur_s=transfer_dur,
                category=TRANSFER,
                parent=root,
                bytes=stage.num_bytes,
                config=stage.config,
            )
        if stage.gpu_kind is not None:
            if stage.gpu_wait_s > 0:
                tracer.span(
                    "gpu wait",
                    track=track,
                    start_s=stage.transfer_end_s,
                    dur_s=stage.gpu_wait_s,
                    category=QUEUEING,
                    parent=root,
                    config=stage.config,
                )
            category = DECODE if stage.gpu_kind == "decode" else COMPUTE
            tracer.span(
                stage.gpu_kind,
                track=track,
                start_s=stage.ready_at_s - stage.gpu_busy_s,
                dur_s=stage.gpu_busy_s,
                category=category,
                parent=root,
                config=stage.config,
            )
    return root
