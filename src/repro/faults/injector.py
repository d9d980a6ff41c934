"""Applies a compiled :class:`~repro.faults.schedule.FaultSchedule` to a backend.

The :class:`FaultInjector` is driven by the
:class:`~repro.serving.api.driver.Driver`: at every arrival whose time passes
the next compiled event, the driver closes the current simulation segment and
the injector mutates the backend in place — marking nodes down/up, swapping a
link's bandwidth trace for a :class:`ScaledTrace`, swapping the engine's
compute model for a :class:`_StragglerCompute` proxy, or poisoning a stored
replica so its next read fails the integrity check.  Everything is an in-place
swap of a modeled component, so with no schedule attached the serving stack
runs byte-identically to a fault-free build.
"""

from __future__ import annotations

from ..network.bandwidth import BandwidthTrace
from .resilience import FaultOutcome, ResilienceManager
from .schedule import (
    CORRUPT,
    GPU_NORMAL,
    GPU_SLOW,
    LINK_DEGRADE,
    LINK_RESTORE,
    NODE_DOWN,
    NODE_UP,
    Corruption,
    FaultEvent,
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
)

__all__ = ["ScaledTrace", "FaultInjector"]


class ScaledTrace(BandwidthTrace):
    """A bandwidth trace scaled to ``factor`` of its base (link degradation)."""

    def __init__(self, base: BandwidthTrace, factor: float) -> None:
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        self.base = base
        self.factor = factor

    def bandwidth_at(self, time_s: float) -> float:
        return self.base.bandwidth_at(time_s) * self.factor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScaledTrace({self.base!r}, factor={self.factor})"


class _StragglerCompute:
    """Delay-scaling proxy over a :class:`~repro.llm.compute_model.ComputeModel`.

    Every modeled GPU delay is multiplied by ``slowdown``; everything else
    (flops accounting, specs) delegates to the base model untouched.
    """

    def __init__(self, base, slowdown: float) -> None:
        if slowdown <= 1.0:
            raise ValueError("slowdown must be above 1.0")
        self.base = base
        self.slowdown = slowdown

    def prefill_delay(self, num_tokens: int, gpu_share: float = 1.0) -> float:
        return self.base.prefill_delay(num_tokens, gpu_share) * self.slowdown

    def decode_delay(self, num_tokens: int, gpu_share: float = 1.0) -> float:
        return self.base.decode_delay(num_tokens, gpu_share) * self.slowdown

    def encode_delay(self, num_tokens: int, gpu_share: float = 1.0) -> float:
        return self.base.encode_delay(num_tokens, gpu_share) * self.slowdown

    def per_token_decode_delay(self, gpu_share: float = 1.0) -> float:
        return self.base.per_token_decode_delay(gpu_share) * self.slowdown

    def __getattr__(self, name):
        return getattr(self.base, name)


class FaultInjector:
    """Replays compiled fault events against a built serving backend.

    Parameters
    ----------
    schedule:
        The compiled :class:`FaultSchedule`.
    backend:
        Any unified-API backend.  Every node id a fault names must be one of
        the backend's storage nodes (:meth:`validate`: ``KeyError`` here and
        when the driver is built); the single topology's one node is
        ``"node-0"``.
    manager:
        The run's :class:`ResilienceManager` (fault bookkeeping, repair).
    tracer:
        Optional tracer — every applied event emits an instant on the
        ``"faults"`` track.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        backend,
        manager: ResilienceManager,
        tracer=None,
    ) -> None:
        self.schedule = schedule
        self.manager = manager
        self.tracer = tracer
        self._events = list(schedule.events())
        self._next = 0
        self._engine = backend.engine
        self._cluster = backend.engine.cluster
        self._base_traces: dict[int, tuple[object, BandwidthTrace]] = {}
        self._base_compute = None
        self.outcomes: dict[str, FaultOutcome] = {}
        self.validate(schedule, self._cluster)

    # ---------------------------------------------------------------- validate
    @staticmethod
    def validate(schedule: FaultSchedule, cluster) -> None:
        """``KeyError`` unless every node id a fault names is one of ``cluster``'s."""
        for fault in schedule:
            if isinstance(fault, (NodeCrash, LinkDegradation, Corruption)):
                if fault.node_id is not None:
                    cluster.node(fault.node_id)

    # ------------------------------------------------------------------ timing
    def due(self, now_s: float) -> bool:
        """Whether any unapplied event is at or before ``now_s``."""
        return self._next < len(self._events) and self._events[self._next].at_s <= now_s

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._events)

    def apply_due(self, now_s: float) -> list[FaultEvent]:
        """Apply every event at or before ``now_s``; returns those applied."""
        applied: list[FaultEvent] = []
        while self.due(now_s):
            event = self._events[self._next]
            self._next += 1
            self._apply(event)
            applied.append(event)
        return applied

    def drain(self) -> list[FaultEvent]:
        """Apply every remaining event (run ended before they were reached)."""
        return self.apply_due(float("inf"))

    # ------------------------------------------------------------------- apply
    def _apply(self, event: FaultEvent) -> None:
        self.manager.now = max(self.manager.now, event.at_s)
        if event.action == NODE_DOWN:
            self._cluster.mark_down(event.node_id)
        elif event.action == NODE_UP:
            self._cluster.mark_up(event.node_id)
        elif event.action == LINK_DEGRADE:
            for link in self._links(event.node_id):
                base = self._base_traces.setdefault(id(link), (link, link.trace))[1]
                link.trace = ScaledTrace(base, event.factor)
        elif event.action == LINK_RESTORE:
            for link in self._links(event.node_id):
                entry = self._base_traces.get(id(link))
                if entry is not None:
                    link.trace = entry[1]
        elif event.action == GPU_SLOW:
            if self._base_compute is None:
                self._base_compute = self._engine._parts.compute
            self._engine._parts.compute = _StragglerCompute(
                self._base_compute, event.factor
            )
        elif event.action == GPU_NORMAL:
            if self._base_compute is not None:
                self._engine._parts.compute = self._base_compute
        elif event.action == CORRUPT:
            self._corrupt(event)
        else:  # pragma: no cover - the schedule compiler owns the vocabulary
            raise ValueError(f"unknown fault action {event.action!r}")
        self._record(event)
        self._instant(event)

    def _links(self, node_id: str | None) -> list:
        """Links a (link) fault targets.

        A node id picks that node's serving link and ``None`` degrades every
        node link (a cluster-wide WAN event; on the single topology, the one
        serving link).
        """
        cluster = self._cluster
        if node_id is not None:
            return [cluster.node(node_id).link]
        return [node.link for node in cluster.nodes.values()]

    def _corrupt(self, event: FaultEvent) -> None:
        cluster = self._cluster
        context_id = event.context_id
        assert context_id is not None
        node_id = event.node_id
        if node_id is None:
            replicas = cluster.replicas_for(context_id)
            if not replicas:
                return  # nothing stored to corrupt — the fault is a no-op
            node_id = replicas[0]
        cluster.corrupted_replicas.add((node_id, context_id))
        self.manager.register_corruption(context_id, event.fault_id)

    # --------------------------------------------------------------- reporting
    def _record(self, event: FaultEvent) -> None:
        outcome = self.outcomes.get(event.fault_id)
        if event.injects:
            if outcome is None:
                fault = self.schedule.fault(event.fault_id)
                self.outcomes[event.fault_id] = FaultOutcome(
                    fault_id=event.fault_id,
                    kind=fault.kind,
                    target=fault.target,
                    injected_at_s=event.at_s,
                )
            else:
                # A flap re-degraded the link: the fault is open again.
                outcome.cleared_at_s = None
        elif outcome is not None:
            outcome.cleared_at_s = event.at_s

    def _instant(self, event: FaultEvent) -> None:
        tracer = self.tracer
        if tracer is None:
            return
        args = {"fault_id": event.fault_id}
        if event.node_id is not None:
            args["node"] = event.node_id
        if event.context_id is not None:
            args["context_id"] = event.context_id
        if event.factor != 1.0:
            args["factor"] = event.factor
        tracer.instant(
            event.action, track="faults", at_s=event.at_s, category="fault", **args
        )

    # ---------------------------------------------------------------- finalize
    def finalize(self) -> tuple[FaultOutcome, ...]:
        """Resolve the per-fault recovery instants after the run drained.

        Node crashes without a recovery event clear when re-replication has
        restored full replication; corruptions clear at repair commit (or at
        detection when repair is off).  Faults still open stay uncleared —
        their MTTR is censored, not zero.
        """
        manager = self.manager
        cluster = self._cluster
        for fault_id, outcome in self.outcomes.items():
            if outcome.cleared_at_s is not None:
                continue
            fault = self.schedule.fault(fault_id)
            if isinstance(fault, Corruption):
                cleared = manager.repair_cleared.get(fault_id)
                if cleared is None:
                    cleared = manager.corruption_detected_at.get(fault.context_id)
                outcome.cleared_at_s = cleared
            elif (
                isinstance(fault, NodeCrash)
                and manager.last_repair_commit_s is not None
                and not cluster.under_replicated()
            ):
                outcome.cleared_at_s = manager.last_repair_commit_s
        return tuple(
            self.outcomes[fault_id]
            for fault_id in sorted(
                self.outcomes, key=lambda fid: int(fid.rsplit("-", 1)[1])
            )
        )
