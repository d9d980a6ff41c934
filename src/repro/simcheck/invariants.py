"""Conservation-law checks over finished runs.

The telemetry layer promises more than "spans exist": per-category child-span
sums reproduce each request's :class:`~repro.metrics.system.QueueingTTFTBreakdown`
exactly, busy time on a serialized resource track never exceeds the track's
elapsed window, queue-depth gauges never go negative, and no store ever holds
more bytes than its declared capacity.  These functions verify each law on a
finished run and return :class:`~repro.simcheck.sanitizers.SimcheckViolation`
records for whatever fails; the :class:`~repro.simcheck.sanitizers.SimcheckMonitor`
aggregates them.

Float tolerances: span durations are *copied* from the recorded waits, so the
per-category sums match the breakdown to float-sum reassociation error only —
we allow ``rel=1e-9, abs=1e-12``, far tighter than any real discrepancy and
far looser than reassociation noise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from .sanitizers import SimcheckViolation

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..serving.api.types import ServeResponse
    from ..serving.concurrent.events import SimClock
    from ..telemetry.trace import SpanColumns, Tracer

__all__ = [
    "check_clock",
    "check_tracer_tracks",
    "check_span_breakdowns",
    "check_store_capacity",
]

_REL_TOL = 1e-9
_ABS_TOL = 1e-12
#: Tracks whose spans represent serialized resource occupancy.
_RESOURCE_TRACK_PREFIXES = ("gpu", "link:")
#: The span categories a request's TTFT breakdown has a field for.
_BREAKDOWN_CATEGORIES = ("queueing", "transfer", "decode", "compute")
#: One resource span as ``(start_s, end_s, dur_s)``.
_Interval = tuple[float, float, float]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(_ABS_TOL, _REL_TOL * max(abs(a), abs(b)))


def check_clock(clock: "SimClock") -> list[SimcheckViolation]:
    """A healthy simulation never schedules in the past."""
    violations: list[SimcheckViolation] = []
    clamped = getattr(clock, "clamped_schedules", 0)
    if clamped:
        detail = ""
        past = getattr(clock, "past_schedules", None)
        if past:
            worst = max(past, key=lambda p: p.slip_s)
            detail = (
                f"; worst slip {worst.slip_s:.3e}s "
                f"(requested t={worst.requested_s:.9f} at now={worst.now_s:.9f})"
            )
        violations.append(
            SimcheckViolation(
                check="clock",
                message=f"{clamped} schedule(s) requested a past timestamp{detail}",
            )
        )
    return violations


def check_tracer_tracks(
    tracer: "Tracer", segment_starts_s: "tuple[float, ...]" = ()
) -> list[SimcheckViolation]:
    """Gauges never negative; serialized resource tracks never overlap.

    ``segment_starts_s`` lists the simulated instants where the driver closed
    a simulation segment (fault events).  Backlog does not carry
    across a boundary, so a span from the old segment may legitimately
    overlap one from the new — the overlap checks run within each segment,
    never across one.  Reads the tracer's columns; builds no span objects.
    """
    violations: list[SimcheckViolation] = []
    samples = tracer.sample_columns()
    for row in np.flatnonzero(np.asarray(samples.value) < 0).tolist():
        value = samples.value[row]
        violations.append(
            SimcheckViolation(
                check="gauges",
                message=(
                    f"counter {samples.strings[samples.name[row]]!r} on "
                    f"{samples.tracks[samples.track[row]]!r} went "
                    f"negative ({value}) at t={samples.at_s[row]:.6f}"
                ),
            )
        )
    spans = tracer.span_columns()
    resource = [track.startswith(_RESOURCE_TRACK_PREFIXES) for track in spans.tracks]
    # Per resource track, its root spans as (start, end, duration).
    by_track: dict[int, list[tuple[float, float, float]]] = {}
    for row, (parent, track) in enumerate(zip(spans.parent, spans.track)):
        if parent < 0 and resource[track]:
            start, dur = spans.start_s[row], spans.dur_s[row]
            by_track.setdefault(track, []).append((start, start + dur, dur))
    boundaries = sorted(segment_starts_s)
    for track_id, intervals in by_track.items():
        track = spans.tracks[track_id]
        ordered = sorted(intervals, key=lambda interval: interval[:2])
        for segment in _split_at(ordered, boundaries):
            busy = sum(dur for _, _, dur in segment)
            elapsed = segment[-1][1] - segment[0][0]
            if busy > elapsed and not _close(busy, elapsed):
                violations.append(
                    SimcheckViolation(
                        check="busy-time",
                        message=(
                            f"track {track!r} busy {busy:.9f}s exceeds elapsed "
                            f"{elapsed:.9f}s — serialized resource overlapped itself"
                        ),
                    )
                )
            previous_end = None
            for start, end, _ in segment:
                if previous_end is not None and start < previous_end:
                    overlap = previous_end - start
                    if overlap > max(_ABS_TOL, _REL_TOL * previous_end):
                        violations.append(
                            SimcheckViolation(
                                check="busy-time",
                                message=(
                                    f"track {track!r} spans overlap by {overlap:.3e}s "
                                    f"around t={start:.6f}"
                                ),
                            )
                        )
                        break
                previous_end = max(previous_end or end, end)
    return violations


def _split_at(ordered: list[_Interval], boundaries: list[float]) -> list[list[_Interval]]:
    """Partition start-sorted intervals into simulation segments.

    An interval belongs to the segment its *start* falls into; with no
    boundaries everything is one segment.
    """
    if not boundaries:
        return [ordered]
    segments: list[list[_Interval]] = []
    current: list[_Interval] = []
    upcoming = list(boundaries)
    for interval in ordered:
        while upcoming and interval[0] >= upcoming[0]:
            upcoming.pop(0)
            if current:
                segments.append(current)
                current = []
        current.append(interval)
    if current:
        segments.append(current)
    return segments


def _category_sums(spans: "SpanColumns") -> dict[str, np.ndarray]:
    """Per breakdown category, each root's sum of its descendants' durations.

    Sums run in record order from 0.0, as a walk of a request's one level of
    children adds them.
    """
    parent = np.asarray(spans.parent)
    rows = np.arange(len(parent))
    # Each span's root: a root is its own, and pointer jumping reaches the
    # root of a deeper span.
    root = np.where(parent < 0, rows, parent)
    while not np.array_equal(above := root[root], root):
        root = above
    ids = {name: index for index, name in enumerate(spans.strings)}
    category = np.asarray(spans.category)
    durations = np.asarray(spans.dur_s)
    child = parent >= 0
    sums = {}
    for name in _BREAKDOWN_CATEGORIES:
        picked = child & (category == ids.get(name, -1))
        sums[name] = np.bincount(root[picked], weights=durations[picked], minlength=len(parent))
    return sums


def check_span_breakdowns(
    tracer: "Tracer", responses: Iterable["ServeResponse"]
) -> tuple[int, list[SimcheckViolation]]:
    """Per-category span sums reproduce each response's TTFT breakdown.

    Request roots are matched to responses by ``(context_id, arrival)``
    greedily with a tolerance (workloads replay identical requests, so the
    pairing is a multiset match, not positional).  Returns
    ``(matched_count, violations)``.  Reads the tracer's columns; builds no
    span objects.
    """
    from ..telemetry.trace import args_dict

    violations: list[SimcheckViolation] = []
    spans = tracer.span_columns()
    strings = spans.strings
    pool: dict[str, list[int]] = {}
    for row, parent in enumerate(spans.parent):
        if parent < 0 and strings[spans.category[row]] == "request":
            context_id = args_dict(spans.args[row]).get("context_id")
            pool.setdefault(str(context_id), []).append(row)
    sums = _category_sums(spans)
    matched = 0
    for response in responses:
        candidates = pool.get(response.context_id, [])
        root = None
        for candidate in candidates:
            if _close(spans.start_s[candidate], response.arrival_s):
                root = candidate
                break
        if root is None:
            violations.append(
                SimcheckViolation(
                    check="spans",
                    message=(
                        f"no request root span for {response.context_id!r} "
                        f"arriving at t={response.arrival_s:.6f}"
                    ),
                )
            )
            continue
        candidates.remove(root)
        matched += 1
        ttft = response.ttft
        expected = {
            "transfer": ttft.network_s,
            "decode": ttft.decode_s,
            "compute": ttft.compute_s,
            "queueing": ttft.queueing_s,
        }
        for category, want in expected.items():
            got = float(sums[category][root])
            if not _close(got, want):
                violations.append(
                    SimcheckViolation(
                        check="spans",
                        message=(
                            f"request {response.context_id!r} "
                            f"(t={spans.start_s[root]:.6f}) "
                            f"{category} span sum {got:.9f}s != breakdown "
                            f"{want:.9f}s"
                        ),
                    )
                )
        total = spans.dur_s[root]
        want_total = ttft.total_s
        if want_total > 0 and not _close(total, want_total):
            violations.append(
                SimcheckViolation(
                    check="spans",
                    message=(
                        f"request {response.context_id!r} root span {total:.9f}s "
                        f"!= TTFT total {want_total:.9f}s"
                    ),
                )
            )
    return matched, violations


def check_store_capacity(backend) -> list[SimcheckViolation]:
    """No tier ends a run holding more bytes than its declared capacity.

    The stores are the backend's ``stores()`` tap; each node's hot tier and,
    if it has one, its cold tier are checked independently.
    """
    violations: list[SimcheckViolation] = []
    for label, store in backend.stores().items():
        for name, tier in (("hot", store.hot), ("cold", store.cold)):
            if tier is None or tier.max_bytes is None:
                continue
            used = tier.storage_bytes()
            if used > tier.max_bytes and not _close(used, tier.max_bytes):
                violations.append(
                    SimcheckViolation(
                        check="capacity",
                        message=(
                            f"store node {label!r} {name} tier holds {used:.0f} bytes "
                            f"over its {tier.max_bytes:.0f}-byte capacity"
                        ),
                    )
                )
    return violations
