"""Export a :class:`~repro.telemetry.trace.Tracer` for offline analysis.

Two formats:

* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` object format
  understood by Perfetto (ui.perfetto.dev) and ``chrome://tracing``.  Request
  tracks become threads of a "requests" process and resource tracks (links,
  GPU schedulers, storage nodes) threads of a "resources" process, so the
  timeline shows one swimlane per request above one swimlane per resource.
  Queue depths are emitted as counter ("C") events, which Perfetto renders as
  stacked area tracks.
* **structured JSONL** — one self-describing JSON object per line (spans,
  instants, counter samples, then one ``metrics`` record holding the registry
  snapshot), for ad-hoc processing with ``jq`` / pandas.

Timestamps: the simulation clock is seconds from run start; the trace-event
format wants microseconds.  Both exports sort events by time, so consumers
can rely on monotonic ``ts``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from .trace import Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "iter_jsonl_events",
    "write_jsonl",
]

#: pid of the per-request swimlanes in the Chrome trace.
REQUESTS_PID = 1
#: pid of the shared-resource swimlanes (links, GPUs, storage).
RESOURCES_PID = 2

_MICRO = 1_000_000.0

#: Events :func:`write_chrome_trace` encodes at a time.  The C encoder holds a
#: batch's text and its pieces (0.1 MiB at 256, 3 MiB at 2048) and is no
#: faster for more.
_EVENT_BATCH = 256


def _us(at_s: float) -> float:
    """Seconds on the sim clock → microseconds in the trace."""
    return at_s * _MICRO


def _track_layout(tracer: Tracer) -> dict[str, tuple[int, int]]:
    """Assign every track a (pid, tid) pair, requests first.

    Request tracks (``request:<id>``) sort by request id so the timeline
    lists them in arrival order; resource tracks keep first-use order.
    """
    request_tracks = []
    resource_tracks = []
    for track in tracer.tracks:
        if track.startswith("request:"):
            request_tracks.append(track)
        else:
            resource_tracks.append(track)
    request_tracks.sort(key=lambda track: int(track.split(":", 1)[1]))
    layout: dict[str, tuple[int, int]] = {}
    for tid, track in enumerate(request_tracks, start=1):
        layout[track] = (REQUESTS_PID, tid)
    for tid, track in enumerate(resource_tracks, start=1):
        layout[track] = (RESOURCES_PID, tid)
    return layout


def chrome_trace_events(tracer: Tracer) -> list[dict[str, Any]]:
    """Render the tracer as a flat, time-sorted trace-event list.

    Metadata ("M") events naming the processes and threads come first, then
    every span ("X"), instant ("i") and counter sample ("C") ordered by
    timestamp.
    """
    layout = _track_layout(tracer)
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": REQUESTS_PID,
            "tid": 0,
            "args": {"name": "requests"},
        },
        {
            "ph": "M",
            "name": "process_name",
            "pid": RESOURCES_PID,
            "tid": 0,
            "args": {"name": "resources"},
        },
    ]
    for track, (pid, tid) in layout.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )

    timed: list[dict[str, Any]] = []
    for span in tracer.spans:
        pid, tid = layout[span.track]
        event: dict[str, Any] = {
            "ph": "X",
            "name": span.name,
            "cat": span.category or "span",
            "pid": pid,
            "tid": tid,
            "ts": _us(span.start_s),
            "dur": _us(span.dur_s),
        }
        args = dict(span.args)
        if span.request_id is not None:
            args.setdefault("request_id", span.request_id)
        if args:
            event["args"] = args
        timed.append(event)
    for instant in tracer.instants:
        pid, tid = layout[instant.track]
        event = {
            "ph": "i",
            "name": instant.name,
            "cat": instant.category or "instant",
            "pid": pid,
            "tid": tid,
            "ts": _us(instant.at_s),
            "s": "t",
        }
        if instant.args:
            event["args"] = dict(instant.args)
        timed.append(event)
    for sample in tracer.samples:
        pid, _tid = layout[sample.track]
        timed.append(
            {
                "ph": "C",
                "name": f"{sample.track} {sample.name}",
                "pid": pid,
                "tid": 0,
                "ts": _us(sample.at_s),
                "args": {sample.name: sample.value},
            }
        )

    timed.sort(key=lambda event: event["ts"])
    events.extend(timed)
    return events


def to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The full Chrome trace object (``json.dump`` it, or use
    :func:`write_chrome_trace`)."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"metrics": tracer.metrics.snapshot()},
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write the Perfetto-loadable trace JSON to ``path`` and return it.

    Example
    -------
    >>> tracer = Tracer()
    >>> serve(ServingSpec(), requests=requests, tracer=tracer)  # doctest: +SKIP
    >>> write_chrome_trace(tracer, "trace.json")  # open at ui.perfetto.dev  # doctest: +SKIP
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # The bytes ``json.dump`` writes, without its pure-Python encoder (a write
    # per token) and without holding ``json.dumps`` of a whole run: the events,
    # which lead the object, go through the C encoder a batch at a time.
    trace = to_chrome_trace(tracer)
    events = trace.pop("traceEvents")
    with path.open("w", encoding="utf-8") as handle:
        handle.write('{"traceEvents": [')
        for first in range(0, len(events), _EVENT_BATCH):
            batch = json.dumps(events[first : first + _EVENT_BATCH])
            handle.write(", " * (first > 0) + batch[1:-1])
        handle.write("], " + json.dumps(trace)[1:] + "\n")
    return path


def iter_jsonl_events(tracer: Tracer) -> Iterator[dict[str, Any]]:
    """Yield every recorded event as a self-describing dict, time-ordered.

    Record kinds: ``span`` (with ``start_s``/``dur_s``/``category``/
    ``request_id``), ``instant`` (``at_s``), ``counter`` (``at_s``/``value``)
    and one trailing ``metrics`` record carrying the registry snapshot.
    """
    records: list[tuple[float, dict[str, Any]]] = []
    for span in tracer.spans:
        records.append(
            (
                span.start_s,
                {
                    "kind": "span",
                    "name": span.name,
                    "track": span.track,
                    "start_s": span.start_s,
                    "dur_s": span.dur_s,
                    "category": span.category,
                    "request_id": span.request_id,
                    "args": dict(span.args),
                },
            )
        )
    for instant in tracer.instants:
        records.append(
            (
                instant.at_s,
                {
                    "kind": "instant",
                    "name": instant.name,
                    "track": instant.track,
                    "at_s": instant.at_s,
                    "category": instant.category,
                    "args": dict(instant.args),
                },
            )
        )
    for sample in tracer.samples:
        records.append(
            (
                sample.at_s,
                {
                    "kind": "counter",
                    "name": sample.name,
                    "track": sample.track,
                    "at_s": sample.at_s,
                    "value": sample.value,
                },
            )
        )
    records.sort(key=lambda pair: pair[0])
    for _at_s, record in records:
        yield record
    yield {"kind": "metrics", "metrics": tracer.metrics.snapshot()}


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write the structured event log (one JSON object per line).

    Example
    -------
    >>> write_jsonl(tracer, "events.jsonl")  # doctest: +SKIP
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in iter_jsonl_events(tracer):
            handle.write(json.dumps(record))
            handle.write("\n")
    return path
