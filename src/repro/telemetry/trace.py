"""Simulated-clock tracing: spans, instant events and counter samples.

A :class:`Tracer` records what happened *when* on the simulation clock:

* spans — a named interval on a track (one request's transfer, one batched
  GPU launch).  Spans nest: a request's root span owns child spans for
  admission wait, link wait, transfer, GPU-queue wait, decode and compute.
  Durations are stored explicitly (not derived from endpoints), so a span
  built from the simulator's recorded wait equals that wait exactly — the
  TTFT-consistency tests rely on this.
* instant events — point-in-time markers (an eviction, a demotion, a
  promotion, a failover, a shed arrival);
* counter samples — a time series of a level (link/GPU queue depth), which
  the Chrome-trace export renders as counter tracks.

Tracks are plain strings (``"gpu"``, ``"link:node-0"``, ``"request:3"``);
the exporter maps them to Perfetto process/thread rows.  The tracer also owns
a :class:`~repro.telemetry.registry.MetricsRegistry`, so one object carries a
run's full telemetry.

Storage.  Spans and counter samples are columns, not objects.  ``array``
columns hold each span's start and duration, its interned name, category and
track ids, its request id and its parent's index, and each sample's time,
value and interned name and track ids.  A span's keyword arguments are one
flat ``(key, value, key, value, ...)`` tuple, shared by every span with equal
arguments when they are hashable (the ``config=`` of thousands of child spans
is a handful of tuples).  A span costs 40 bytes of columns and a list slot
plus its arguments; a sample costs 24 bytes.  Instant events, a few per
fault or eviction, stay :class:`InstantEvent` objects.

The views.  :attr:`Tracer.spans` and :attr:`Tracer.samples` are read-only
sequences — ``len``, index (negative too), slice, iteration in record order,
unpacking — whose items are built on access:

* a :class:`Span` is a read-only handle on one record.  Two handles on the
  same record compare and hash equal.  Its arguments are the one mutable
  part: ``annotate()`` writes through to the columns, and ``Span.args``
  builds the span's dict on first read and keeps it in place of the tuple,
  so edits to it persist.
  ``children`` and ``walk()`` read an index of the parent column that is
  built on first use, so recording keeps no child lists.
* a :class:`CounterSample` is a frozen value record.

The readers on a run's path — :mod:`~repro.telemetry.export`,
:class:`~repro.telemetry.timeseries.TimeSeriesRecorder` and the simcheck
invariants — read a snapshot of the columns from :meth:`Tracer.span_columns`
and :meth:`Tracer.sample_columns`, so a run that only exports builds no
record objects.

Untraced runs pass ``tracer=None``: every instrumentation site guards on
``tracer is not None`` before building any event, so the untraced hot path
pays a single identity test and nothing else.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Any, Callable, Iterator, NamedTuple, TypeVar

import numpy as np

from .registry import MetricsRegistry

__all__ = [
    "QUEUEING",
    "TRANSFER",
    "DECODE",
    "COMPUTE",
    "NO_REQUEST",
    "Span",
    "InstantEvent",
    "CounterSample",
    "RecordView",
    "SpanColumns",
    "SampleColumns",
    "Tracer",
    "args_dict",
    "emit_timeline_spans",
]

#: Span categories mirroring the TTFT decomposition; the consistency tests
#: sum span durations per category and compare against the breakdown fields.
QUEUEING = "queueing"
TRANSFER = "transfer"
DECODE = "decode"
COMPUTE = "compute"

#: The ``request_id`` column's value for a span of no request.
NO_REQUEST = -(2**63)

_Record = TypeVar("_Record")


@dataclass(unsafe_hash=True, slots=True)
class Span:
    """A handle on one span record of a :class:`Tracer`.

    Handles are built on access and compare and hash by record.  A span is a
    named interval on one track, possibly with nested children; ``dur_s`` is
    authoritative, ``end_s`` derived.
    """

    _tracer: "Tracer"
    _index: int

    @property
    def name(self) -> str:
        tracer = self._tracer
        return tracer._strings[tracer._span_name[self._index]]

    @property
    def track(self) -> str:
        tracer = self._tracer
        return tracer._tracks[tracer._span_track[self._index]]

    @property
    def category(self) -> str:
        tracer = self._tracer
        return tracer._strings[tracer._span_category[self._index]]

    @property
    def start_s(self) -> float:
        return self._tracer._span_start[self._index]

    @property
    def dur_s(self) -> float:
        return self._tracer._span_dur[self._index]

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s

    @property
    def request_id(self) -> int | None:
        request_id = self._tracer._span_request[self._index]
        return None if request_id == NO_REQUEST else request_id

    @property
    def args(self) -> dict[str, Any]:
        """The span's arguments; built on first read and kept, so edits persist."""
        stored = self._tracer._span_args[self._index]
        if type(stored) is not dict:
            stored = self._tracer._span_args[self._index] = args_dict(stored)
        return stored

    def annotate(self, **args: Any) -> "Span":
        """Merge ``args`` into the span's arguments (``dict.update`` order)."""
        tracer, index = self._tracer, self._index
        stored = tracer._span_args[index]
        if type(stored) is dict:
            stored.update(args)
        else:
            tracer._span_args[index] = tracer._pooled({**args_dict(stored), **args})
        return self

    @property
    def parent(self) -> "Span | None":
        parent = self._tracer._span_parent[self._index]
        return None if parent < 0 else Span(self._tracer, parent)

    @property
    def children(self) -> list["Span"]:
        """Direct children, in record order."""
        tracer = self._tracer
        return [Span(tracer, index) for index in tracer._children_of(self._index)]

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


@dataclass(frozen=True, slots=True)
class CounterSample:
    """One sample of a level (queue depth) on a track's counter series."""

    name: str
    track: str
    at_s: float
    value: float


class RecordView(Sequence[_Record]):
    """A read-only sequence of a tracer's records, each built on access."""

    __slots__ = ("_length", "_item")

    def __init__(self, length: Callable[[], int], item: Callable[[int], _Record]) -> None:
        self._length = length
        self._item = item

    def __len__(self) -> int:
        return self._length()

    def __getitem__(self, key):
        picked = range(self._length())[key]
        if isinstance(picked, range):
            return [self._item(index) for index in picked]
        return self._item(picked)


class SpanColumns(NamedTuple):
    """A copy of a tracer's span columns: row ``i`` is the ``i``-th span recorded."""

    start_s: array  # float64
    dur_s: array  # float64
    name: array  # int32 index into ``strings``
    category: array  # int32 index into ``strings``
    track: array  # int32 index into ``tracks``
    request_id: array  # int64; NO_REQUEST for a span of no request
    parent: array  # int32 row of the parent span; -1 for a root
    args: list  # flat ``(key, value, ...)`` tuples, or the dict ``Span.args`` built
    strings: list[str]
    tracks: list[str]


class SampleColumns(NamedTuple):
    """A copy of a tracer's counter-sample columns, in record order."""

    at_s: array  # float64
    value: array  # float64
    name: array  # int32 index into ``strings``
    track: array  # int32 index into ``tracks``
    strings: list[str]
    tracks: list[str]


def args_dict(stored: tuple | dict[str, Any]) -> dict[str, Any]:
    """A new dict of one span's stored arguments (a flat tuple or a dict).

    A tuple value reads back as a list, a JSON array: sequences such as a
    batch's request ids are recorded as tuples only so that equal argument
    tuples pool.
    """
    if type(stored) is dict:
        return dict(stored)
    args = dict(zip(stored[::2], stored[1::2]))
    if tuple in map(type, stored[1::2]):
        for key, value in args.items():
            if type(value) is tuple:
                args[key] = list(value)
    return args


def _intern(ids: dict[str, int], values: list[str], value: str) -> int:
    """``value``'s id in a string table, adding it on first use."""
    found = ids.get(value)
    if found is None:
        found = ids[value] = len(values)
        values.append(value)
    return found


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
    >>> [span.name for span in tracer.spans if span.request_id == 0]  # doctest: +SKIP
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.instants: list[InstantEvent] = []
        self.now = 0.0
        self._next_request_id = 0
        # Span names, categories and sample names; tracks in first-use order.
        self._string_ids: dict[str, int] = {}
        self._strings: list[str] = []
        self._track_ids: dict[str, int] = {}
        self._tracks: list[str] = []
        # Every hashable flat args tuple, by value.
        self._args_pool: dict[tuple, tuple] = {}
        self._span_start = array("d")
        self._span_dur = array("d")
        self._span_name = array("i")
        self._span_category = array("i")
        self._span_track = array("i")
        self._span_request = array("q")
        self._span_parent = array("i")
        self._span_args: list[tuple | dict[str, Any]] = []
        # (span count, rows by parent, their parents): built on first use.
        self._child_index: tuple[int, np.ndarray, np.ndarray] | None = None
        self._sample_at = array("d")
        self._sample_value = array("d")
        self._sample_name = array("i")
        self._sample_track = array("i")

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
        if parent is None:
            parent_index = -1
            request = NO_REQUEST if request_id is None else request_id
        else:
            if parent._tracer is not self:
                raise ValueError("a span's parent must belong to the same tracer")
            parent_index = parent._index
            request = self._span_request[parent_index] if request_id is None else request_id
        # Values convert before any column grows, so a bad one leaves no
        # partial row behind.
        start, dur_s, request = float(start), float(dur_s), int(request)
        strings, string_ids = self._strings, self._string_ids
        index = len(self._span_start)
        self._span_start.append(start)
        self._span_dur.append(dur_s)
        self._span_name.append(_intern(string_ids, strings, name))
        self._span_category.append(_intern(string_ids, strings, category))
        self._span_track.append(_intern(self._track_ids, self._tracks, track))
        self._span_request.append(request)
        self._span_parent.append(parent_index)
        self._span_args.append(self._pooled(args) if args else ())
        return Span(self, index)

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
        _intern(self._track_ids, self._tracks, track)
        return event

    def sample(
        self, name: str, value: float, *, track: str, at_s: float | None = None
    ) -> None:
        at_s, value = float(self.now if at_s is None else at_s), float(value)
        self._sample_at.append(at_s)
        self._sample_value.append(value)
        self._sample_name.append(_intern(self._string_ids, self._strings, name))
        self._sample_track.append(_intern(self._track_ids, self._tracks, track))

    def _pooled(self, args: dict[str, Any]) -> tuple:
        """``args`` as one flat tuple, shared with every equal hashable one."""
        flat = tuple(chain.from_iterable(args.items()))
        try:
            return self._args_pool.setdefault(flat, flat)
        except TypeError:  # an unhashable value, such as a list of request ids
            return flat

    # ------------------------------------------------------------------- views
    @property
    def spans(self) -> RecordView[Span]:
        """Every span, in record order (handles built on access)."""
        return RecordView(self._span_start.__len__, partial(Span, self))

    @property
    def samples(self) -> RecordView[CounterSample]:
        """Every counter sample, in record order (built on access)."""
        return RecordView(self._sample_at.__len__, self._sample)

    def _sample(self, index: int) -> CounterSample:
        return CounterSample(
            self._strings[self._sample_name[index]],
            self._tracks[self._sample_track[index]],
            self._sample_at[index],
            self._sample_value[index],
        )

    def span_columns(self) -> SpanColumns:
        """A copy of the span columns, for readers that scan every span."""
        return SpanColumns(
            self._span_start[:],
            self._span_dur[:],
            self._span_name[:],
            self._span_category[:],
            self._span_track[:],
            self._span_request[:],
            self._span_parent[:],
            list(self._span_args),
            list(self._strings),
            list(self._tracks),
        )

    def sample_columns(self) -> SampleColumns:
        """A copy of the counter-sample columns."""
        return SampleColumns(
            self._sample_at[:],
            self._sample_value[:],
            self._sample_name[:],
            self._sample_track[:],
            list(self._strings),
            list(self._tracks),
        )

    # ----------------------------------------------------------------- queries
    def root_spans(self) -> list[Span]:
        """Spans with no parent (one per traced request, plus resource spans)."""
        return [Span(self, index) for index, parent in enumerate(self._span_parent) if parent < 0]

    def _children_of(self, index: int) -> list[int]:
        """Rows of ``index``'s direct children, in record order."""
        count = len(self._span_parent)
        if self._child_index is None or self._child_index[0] != count:
            parents = np.array(self._span_parent)
            order = np.argsort(parents, kind="stable")
            self._child_index = (count, order, parents[order])
        _, order, parents = self._child_index
        first, last = np.searchsorted(parents, (index, index + 1))
        return order[first:last].tolist()


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
