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
from itertools import islice
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .trace import NO_REQUEST, SampleColumns, SpanColumns, Tracer, args_dict

__all__ = [
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


def _stable_order(stamps: np.ndarray) -> Iterator[int]:
    """Positions of ``stamps`` in ascending order, ties in position order.

    One stable ``argsort``; the positions come out as Python ints a batch
    at a time, so the order costs 8 bytes an event.
    """
    order = np.argsort(stamps, kind="stable")
    for start in range(0, len(order), _EVENT_BATCH):
        yield from order[start : start + _EVENT_BATCH].tolist()


def _stamps(spans: SpanColumns, instants: list, samples: SampleColumns) -> np.ndarray:
    """Every event's time in seconds: spans, then instants, then samples."""
    return np.concatenate(
        (
            np.asarray(spans.start_s),
            np.fromiter((instant.at_s for instant in instants), float, len(instants)),
            np.asarray(samples.at_s),
        )
    )


def _iter_chrome_events(tracer: Tracer) -> Iterator[dict[str, Any]]:
    """The trace events of the Chrome trace, built one at a time.

    Events are read off the tracer's columns in one stable sort of their
    microsecond stamps over spans, then instants, then samples, which is the
    order a stable sort of the built events by ``ts`` gives.
    """
    layout = _track_layout(tracer)
    for pid, name in ((REQUESTS_PID, "requests"), (RESOURCES_PID, "resources")):
        yield {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": name}}
    for track, (pid, tid) in layout.items():
        yield {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid, "args": {"name": track}}

    spans, instants, samples = tracer.span_columns(), tracer.instants, tracer.sample_columns()
    strings = spans.strings
    places = [layout[track] for track in spans.tracks]
    first_instant = len(spans.start_s)
    first_sample = first_instant + len(instants)
    for index in _stable_order(_stamps(spans, instants, samples) * _MICRO):
        if index < first_instant:
            pid, tid = places[spans.track[index]]
            event: dict[str, Any] = {
                "ph": "X",
                "name": strings[spans.name[index]],
                "cat": strings[spans.category[index]] or "span",
                "pid": pid,
                "tid": tid,
                "ts": _us(spans.start_s[index]),
                "dur": _us(spans.dur_s[index]),
            }
            args = args_dict(spans.args[index])
            request_id = spans.request_id[index]
            if request_id != NO_REQUEST:
                args.setdefault("request_id", request_id)
            if args:
                event["args"] = args
        elif index < first_sample:
            instant = instants[index - first_instant]
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
        else:
            row = index - first_sample
            track, name = samples.track[row], samples.strings[samples.name[row]]
            event = {
                "ph": "C",
                "name": f"{samples.tracks[track]} {name}",
                "pid": places[track][0],
                "tid": 0,
                "ts": _us(samples.at_s[row]),
                "args": {name: samples.value[row]},
            }
        yield event


def _trace_trailer(tracer: Tracer) -> dict[str, Any]:
    """What follows ``traceEvents`` in the trace object."""
    return {"displayTimeUnit": "ms", "otherData": {"metrics": tracer.metrics.snapshot()}}


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
    # per token) and without holding the run's events: they are built, and go
    # through the C encoder, a batch at a time.
    events = _iter_chrome_events(tracer)
    with path.open("w", encoding="utf-8") as handle:
        handle.write('{"traceEvents": [')
        separator = ""
        while batch := list(islice(events, _EVENT_BATCH)):
            handle.write(separator + json.dumps(batch)[1:-1])
            separator = ", "
        handle.write("], " + json.dumps(_trace_trailer(tracer))[1:] + "\n")
    return path


def iter_jsonl_events(tracer: Tracer) -> Iterator[dict[str, Any]]:
    """Yield every recorded event as a self-describing dict, time-ordered.

    Record kinds: ``span`` (with ``start_s``/``dur_s``/``category``/
    ``request_id``), ``instant`` (``at_s``), ``counter`` (``at_s``/``value``)
    and one trailing ``metrics`` record carrying the registry snapshot.
    Ties in time keep spans before instants before counters, each in record
    order.
    """
    spans, instants, samples = tracer.span_columns(), tracer.instants, tracer.sample_columns()
    strings, tracks = spans.strings, spans.tracks
    first_instant = len(spans.start_s)
    first_sample = first_instant + len(instants)
    for index in _stable_order(_stamps(spans, instants, samples)):
        if index < first_instant:
            request_id = spans.request_id[index]
            yield {
                "kind": "span",
                "name": strings[spans.name[index]],
                "track": tracks[spans.track[index]],
                "start_s": spans.start_s[index],
                "dur_s": spans.dur_s[index],
                "category": strings[spans.category[index]],
                "request_id": None if request_id == NO_REQUEST else request_id,
                "args": args_dict(spans.args[index]),
            }
        elif index < first_sample:
            instant = instants[index - first_instant]
            yield {
                "kind": "instant",
                "name": instant.name,
                "track": instant.track,
                "at_s": instant.at_s,
                "category": instant.category,
                "args": dict(instant.args),
            }
        else:
            row = index - first_sample
            yield {
                "kind": "counter",
                "name": samples.strings[samples.name[row]],
                "track": samples.tracks[samples.track[row]],
                "at_s": samples.at_s[row],
                "value": samples.value[row],
            }
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
