"""Event-driven concurrent serving: queueing at the GPU, batched decode.

Every served request, and every context load the method harness evaluates
(:meth:`~repro.baselines.ContextLoadingMethod.evaluate`), is played here, on
a discrete-event simulation in which contention *emerges* from shared links
and a serialized GPU — there is no static GPU share anywhere:

* :class:`SimClock` — deterministic event loop over simulated time;
* :class:`LinkChannel` / :class:`GpuScheduler` — FIFO links and a serialized
  GPU run queue with continuous batching of same-node bitstream decodes;
* :class:`LoadStage` / :class:`StaticLoad` / :class:`ChunkedKVLoad` — what a
  request must transfer and compute, chunk by chunk, with the adaptation
  policy consulted against live contention;
* :class:`ConcurrentLoadSimulator` — runs requests through the shared
  resources; per-request TTFT decomposes exactly into queueing delay +
  transfer + compute.

A served batch of :class:`~repro.serving.api.ServeRequest` objects is routed
and played on one simulator by :meth:`~repro.serving.api.Backend.run`.
"""

from .events import SimClock
from .processes import TIER_CONFIG, ChunkedKVLoad, LoadProcess, LoadStage, StaticLoad
from .resources import DECODE, PREFILL, GpuScheduler, GpuTask, LinkChannel
from .simulator import ConcurrentLoadSimulator, RequestTimeline, StageRecord

__all__ = [
    "ChunkedKVLoad",
    "ConcurrentLoadSimulator",
    "DECODE",
    "GpuScheduler",
    "GpuTask",
    "LinkChannel",
    "LoadProcess",
    "LoadStage",
    "PREFILL",
    "RequestTimeline",
    "SimClock",
    "StageRecord",
    "StaticLoad",
    "TIER_CONFIG",
]
