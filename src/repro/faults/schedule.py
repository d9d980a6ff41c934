"""Declarative, deterministic fault schedules for the serving simulation.

A :class:`FaultSchedule` is a set of fault specifications — node crashes,
link degradation (with optional flapping), straggler GPUs, corrupted stored
contexts — compiled into a sorted stream of :class:`FaultEvent` clock events.
Every event carries a simulated-time instant; the
:class:`~repro.serving.api.driver.Driver` applies events at arrival-order
boundaries, so the same schedule against the same spec and workload replays
identically (there is no wall-clock or hidden RNG anywhere in the layer).

The four fault kinds map onto the failure domains of the serving stack:

* :class:`NodeCrash` — a storage node goes down (its contents stay, like a
  reboot) and optionally recovers later;
* :class:`LinkDegradation` — a link's bandwidth is cut to ``factor`` of its
  provisioned trace for a window; ``flaps > 0`` splits the window into
  alternating degraded/healthy sub-windows (route flapping);
* :class:`GpuStraggler` — the GPU compute model slows down by ``slowdown``
  for a window (a straggling worker, thermal throttling, a noisy neighbour);
* :class:`Corruption` — a stored replica of a context fails its integrity
  check on the next read (bit rot, a truncated object), forcing failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

__all__ = [
    "NodeCrash",
    "LinkDegradation",
    "GpuStraggler",
    "Corruption",
    "FaultSpec",
    "FaultEvent",
    "FaultSchedule",
]

# Event actions (the compiled vocabulary the injector dispatches on).
NODE_DOWN = "node_down"
NODE_UP = "node_up"
LINK_DEGRADE = "link_degrade"
LINK_RESTORE = "link_restore"
GPU_SLOW = "gpu_slow"
GPU_NORMAL = "gpu_normal"
CORRUPT = "corrupt"

#: Actions that inject a fault (the rest clear one).
_INJECT_ACTIONS = frozenset({NODE_DOWN, LINK_DEGRADE, GPU_SLOW, CORRUPT})


def _require_window(at_s: float, until_s: float) -> None:
    if at_s < 0:
        raise ValueError("at_s must be non-negative")
    if until_s <= at_s:
        raise ValueError("until_s must be after at_s")


@dataclass(frozen=True)
class NodeCrash:
    """A storage node crashes at ``at_s`` and optionally recovers later.

    The named node is marked down: reads fail over along the hash ring, and
    with no live replica left (always, on the single topology, whose one node
    is ``"node-0"``) queries degrade to the text re-prefill path until
    recovery.  An id the backend does not have is a ``KeyError`` when the
    driver is built.

    Example
    -------
    >>> crash = NodeCrash("node-0", at_s=10.0, recover_at_s=40.0)
    >>> crash.kind, crash.target
    ('crash', 'node-0')
    """

    node_id: str
    at_s: float
    recover_at_s: float | None = None

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValueError("node_id must be non-empty")
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.recover_at_s is not None and self.recover_at_s <= self.at_s:
            raise ValueError("recover_at_s must be after at_s")

    @property
    def kind(self) -> str:
        return "crash"

    @property
    def target(self) -> str:
        return self.node_id


@dataclass(frozen=True)
class LinkDegradation:
    """A link's bandwidth drops to ``factor`` of its trace for a window.

    ``node_id=None`` targets every storage node's serving link (the single
    topology's one link); a node id targets that node's link.  ``flaps > 0``
    splits the window into ``2 * flaps + 1`` equal sub-windows alternating
    degraded/healthy — the degraded sub-windows come first and last, modeling
    a flapping route.

    Example
    -------
    >>> slow = LinkDegradation(at_s=20.0, until_s=30.0, factor=0.25, flaps=2)
    >>> slow.kind, slow.target
    ('link', 'serving-link')
    """

    at_s: float
    until_s: float
    factor: float
    node_id: str | None = None
    flaps: int = 0

    def __post_init__(self) -> None:
        _require_window(self.at_s, self.until_s)
        if not 0.0 < self.factor < 1.0:
            raise ValueError("factor must be in (0, 1) — the remaining bandwidth fraction")
        if self.flaps < 0:
            raise ValueError("flaps must be non-negative")

    @property
    def kind(self) -> str:
        return "link"

    @property
    def target(self) -> str:
        return self.node_id or "serving-link"


@dataclass(frozen=True)
class GpuStraggler:
    """The GPU compute model runs ``slowdown`` times slower for a window.

    Example
    -------
    >>> straggler = GpuStraggler(at_s=5.0, until_s=15.0, slowdown=4.0)
    >>> straggler.kind
    'gpu'
    """

    at_s: float
    until_s: float
    slowdown: float

    def __post_init__(self) -> None:
        _require_window(self.at_s, self.until_s)
        if self.slowdown <= 1.0:
            raise ValueError("slowdown must be above 1.0")

    @property
    def kind(self) -> str:
        return "gpu"

    @property
    def target(self) -> str:
        return "gpu"


@dataclass(frozen=True)
class Corruption:
    """A stored replica of ``context_id`` fails its integrity check.

    From ``at_s`` on, the first read that routes to the corrupted replica
    detects the bad copy, evicts it and fails over to another replica (or the
    text path, at once on the single topology, which has one copy).
    ``node_id=None`` corrupts the first replica in ring order at injection time.

    Example
    -------
    >>> bitrot = Corruption("ctx-0000", at_s=12.0)
    >>> bitrot.kind, bitrot.target
    ('corruption', 'ctx-0000@replica')
    """

    context_id: str
    at_s: float
    node_id: str | None = None

    def __post_init__(self) -> None:
        if not self.context_id:
            raise ValueError("context_id must be non-empty")
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")

    @property
    def kind(self) -> str:
        return "corruption"

    @property
    def target(self) -> str:
        where = self.node_id or "replica"
        return f"{self.context_id}@{where}"


FaultSpec = Union[NodeCrash, LinkDegradation, GpuStraggler, Corruption]


@dataclass(frozen=True)
class FaultEvent:
    """One compiled clock event of a schedule."""

    at_s: float
    action: str
    fault_id: str
    node_id: str | None = None
    context_id: str | None = None
    factor: float = 1.0

    @property
    def injects(self) -> bool:
        """True for events that inject a fault (False for recoveries)."""
        return self.action in _INJECT_ACTIONS


def _compile(fault: FaultSpec, fault_id: str) -> list[FaultEvent]:
    if isinstance(fault, NodeCrash):
        events = [
            FaultEvent(fault.at_s, NODE_DOWN, fault_id, node_id=fault.node_id)
        ]
        if fault.recover_at_s is not None:
            events.append(
                FaultEvent(fault.recover_at_s, NODE_UP, fault_id, node_id=fault.node_id)
            )
        return events
    if isinstance(fault, LinkDegradation):
        # 2*flaps + 1 equal sub-windows; even-indexed ones are degraded.
        slots = 2 * fault.flaps + 1
        width = (fault.until_s - fault.at_s) / slots
        events = []
        for slot in range(slots):
            start = fault.at_s + slot * width
            if slot % 2 == 0:
                events.append(
                    FaultEvent(
                        start,
                        LINK_DEGRADE,
                        fault_id,
                        node_id=fault.node_id,
                        factor=fault.factor,
                    )
                )
            else:
                events.append(
                    FaultEvent(start, LINK_RESTORE, fault_id, node_id=fault.node_id)
                )
        events.append(FaultEvent(fault.until_s, LINK_RESTORE, fault_id, node_id=fault.node_id))
        return events
    if isinstance(fault, GpuStraggler):
        return [
            FaultEvent(fault.at_s, GPU_SLOW, fault_id, factor=fault.slowdown),
            FaultEvent(fault.until_s, GPU_NORMAL, fault_id),
        ]
    if isinstance(fault, Corruption):
        return [
            FaultEvent(
                fault.at_s,
                CORRUPT,
                fault_id,
                node_id=fault.node_id,
                context_id=fault.context_id,
            )
        ]
    raise TypeError(f"unknown fault specification: {fault!r}")


class FaultSchedule:
    """An immutable, compiled schedule of deterministic faults.

    Parameters
    ----------
    faults:
        The fault specifications (:class:`NodeCrash`, :class:`LinkDegradation`,
        :class:`GpuStraggler`, :class:`Corruption`).
    seed:
        Seed of the resilience layer's jitter RNG when the driver builds one
        implicitly (a spec-level :class:`~repro.faults.resilience.
        ResiliencePolicy` carries its own seed and wins).  The schedule itself
        is fully explicit — the seed never moves a fault.

    Example
    -------
    >>> schedule = FaultSchedule([NodeCrash("node-0", at_s=1.0, recover_at_s=4.0)])
    >>> [event.action for event in schedule.events()]
    ['node_down', 'node_up']
    """

    def __init__(self, faults: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.faults: tuple[FaultSpec, ...] = tuple(faults)
        self.seed = seed
        compiled: list[FaultEvent] = []
        for index, fault in enumerate(self.faults):
            compiled.extend(_compile(fault, f"fault-{index}"))
        # Stable sort: same-instant events keep declaration order.
        self._events = tuple(sorted(compiled, key=lambda event: event.at_s))
        by_id: dict[str, FaultSpec] = {}
        for index, fault in enumerate(self.faults):
            by_id[f"fault-{index}"] = fault
        self._by_id = by_id

    # ------------------------------------------------------------------ access
    def events(self) -> tuple[FaultEvent, ...]:
        """All compiled clock events, sorted by simulated time."""
        return self._events

    def fault(self, fault_id: str) -> FaultSpec:
        """The specification a compiled event's ``fault_id`` refers to."""
        return self._by_id[fault_id]

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(f"{fault.kind}@{fault.at_s:g}s" for fault in self.faults)
        return f"FaultSchedule([{kinds}], seed={self.seed})"
