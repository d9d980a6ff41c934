"""The unified serving API: one spec, one backend, one driver.

This package is the single public serving surface of the repo:

* :class:`ServingSpec` — a frozen, validated declaration of the deployment
  (model, codec levels, store topology single/tiered/cluster, node count,
  replication, tier sizes, links, batching, admission, GPU fleet);
* :class:`Backend` — the one serving object built from the spec
  (``Backend(spec)``, or :func:`build_backend`): it owns the store topology,
  the links, the synthetic LLM, the encoder and the compute model, and does
  ``ingest`` / ``resolve`` / ``respond``; ``run(requests)`` plays a batch on
  one event simulation, speaking :class:`ServeRequest` /
  :class:`ServeResponse`;
* :func:`profile_codec` — the offline codec profile a backend is built
  around, taken once per model and process and shared by every backend
  (``build_backend(spec, codec=...)`` injects another);
* :class:`Driver` / :func:`serve` — the arrival-driven open-loop runner that
  replays a workload's true Poisson arrival process (ingest events
  interleaved with queries, optional token-bucket shedding, faults as
  events on the simulated clock) through any backend, reported as one
  :class:`RunReport`.

``backends`` and ``driver`` are loaded lazily (PEP 562): the backend they
build imports :mod:`.spec` and :mod:`.types` itself, so the eager surface of
this package must stay limited to those leaf modules.
"""

from __future__ import annotations

from ... import _lazy_exports
from ..fleet.autoscale import AutoscaleSpec
from .spec import ServingSpec
from .types import RunReport, ServeRequest, ServeResponse

__all__ = [
    "AutoscaleSpec",
    "Backend",
    "Driver",
    "RunReport",
    "ServeRequest",
    "ServeResponse",
    "ServingSpec",
    "TokenBucketAdmission",
    "build_backend",
    "profile_codec",
    "serve",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        ".backends": ("Backend", "build_backend"),
        "..engine": ("profile_codec",),
        ".driver": ("Driver", "TokenBucketAdmission", "serve"),
    },
)
