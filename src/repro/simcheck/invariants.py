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

from .sanitizers import SimcheckViolation

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..serving.api.types import ServeResponse
    from ..serving.concurrent.events import SimClock
    from ..telemetry.trace import Span, Tracer

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
    never across one.
    """
    violations: list[SimcheckViolation] = []
    for sample in tracer.samples:
        if sample.value < 0:
            violations.append(
                SimcheckViolation(
                    check="gauges",
                    message=(
                        f"counter {sample.name!r} on {sample.track!r} went "
                        f"negative ({sample.value}) at t={sample.at_s:.6f}"
                    ),
                )
            )
    by_track: dict[str, list["Span"]] = {}
    for span in tracer.spans:
        if span.parent is not None:
            continue
        if span.track.startswith(_RESOURCE_TRACK_PREFIXES):
            by_track.setdefault(span.track, []).append(span)
    boundaries = sorted(segment_starts_s)
    for track, spans in by_track.items():
        ordered = sorted(spans, key=lambda s: (s.start_s, s.end_s))
        for segment in _split_at(ordered, boundaries):
            busy = sum(span.dur_s for span in segment)
            elapsed = segment[-1].end_s - segment[0].start_s
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
            for span in segment:
                if previous_end is not None and span.start_s < previous_end:
                    overlap = previous_end - span.start_s
                    if overlap > max(_ABS_TOL, _REL_TOL * previous_end):
                        violations.append(
                            SimcheckViolation(
                                check="busy-time",
                                message=(
                                    f"track {track!r} spans overlap by {overlap:.3e}s "
                                    f"around t={span.start_s:.6f}"
                                ),
                            )
                        )
                        break
                previous_end = max(previous_end or span.end_s, span.end_s)
    return violations


def _split_at(ordered: "list[Span]", boundaries: "list[float]") -> "list[list[Span]]":
    """Partition start-sorted spans into simulation segments.

    A span belongs to the segment its *start* falls into; with no boundaries
    everything is one segment.
    """
    if not boundaries:
        return [ordered]
    segments: list[list["Span"]] = []
    current: list["Span"] = []
    upcoming = list(boundaries)
    for span in ordered:
        while upcoming and span.start_s >= upcoming[0]:
            upcoming.pop(0)
            if current:
                segments.append(current)
                current = []
        current.append(span)
    if current:
        segments.append(current)
    return segments


def _span_sums(root: "Span") -> dict[str, float]:
    """Per-category duration sums over a request root's descendants."""
    sums = {"queueing": 0.0, "transfer": 0.0, "decode": 0.0, "compute": 0.0}
    for span in root.walk():
        if span is root:
            continue
        if span.category in sums:
            sums[span.category] += span.dur_s
    return sums


def check_span_breakdowns(
    tracer: "Tracer", responses: Iterable["ServeResponse"]
) -> tuple[int, list[SimcheckViolation]]:
    """Per-category span sums reproduce each response's TTFT breakdown.

    Request roots are matched to responses by ``(context_id, arrival)``
    greedily with a tolerance (workloads replay identical requests, so the
    pairing is a multiset match, not positional).  Returns
    ``(matched_count, violations)``.
    """
    violations: list[SimcheckViolation] = []
    roots = [span for span in tracer.root_spans() if span.category == "request"]
    pool: dict[str, list["Span"]] = {}
    for root in roots:
        pool.setdefault(str(root.args.get("context_id")), []).append(root)
    matched = 0
    for response in responses:
        candidates = pool.get(response.context_id, [])
        root = None
        for candidate in candidates:
            if _close(candidate.start_s, response.arrival_s):
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
        sums = _span_sums(root)
        ttft = response.ttft
        expected = {
            "transfer": ttft.network_s,
            "decode": ttft.decode_s,
            "compute": ttft.compute_s,
            "queueing": ttft.queueing_s,
        }
        for category, want in expected.items():
            got = sums[category]
            if not _close(got, want):
                violations.append(
                    SimcheckViolation(
                        check="spans",
                        message=(
                            f"request {response.context_id!r} (t={root.start_s:.6f}) "
                            f"{category} span sum {got:.9f}s != breakdown "
                            f"{want:.9f}s"
                        ),
                    )
                )
        total = root.dur_s
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

    The stores are the engine's ``stores()`` tap; each node's hot tier and,
    if it has one, its cold tier are checked independently.
    """
    violations: list[SimcheckViolation] = []
    for label, store in backend.engine.stores().items():
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
