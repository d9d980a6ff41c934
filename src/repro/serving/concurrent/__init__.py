"""Event-driven concurrent serving: queueing at the GPU, batched decode.

Every served request is played here, on a discrete-event simulation in which
contention *emerges* (the method harness's lone-request
:class:`~repro.streaming.streamer.KVStreamer` models concurrency as a static
``1/n`` GPU share instead):

* :class:`SimClock` — deterministic event loop over simulated time;
* :class:`LinkChannel` / :class:`GpuScheduler` — FIFO links and a serialized
  GPU run queue with continuous batching of same-node bitstream decodes;
* :class:`LoadStage` / :class:`StaticLoad` / :class:`ChunkedKVLoad` — what a
  request must transfer and compute, chunk by chunk, with the adaptation
  policy consulted against live contention;
* :class:`ConcurrentLoadSimulator` — runs requests through the shared
  resources; per-request TTFT decomposes exactly into queueing delay +
  transfer + compute;
* :func:`serve_batch` — plays a batch of
  :class:`~repro.serving.api.ServeRequest` objects through a simulator,
  routed by the engine it is handed.
"""

from .engine import serve_batch
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
    "serve_batch",
]
