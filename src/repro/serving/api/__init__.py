"""The unified serving API: one spec, one backend, one driver.

This package is the single public serving surface of the repo:

* :class:`ServingSpec` — a frozen, validated declaration of the deployment
  (model, codec levels, store topology single/tiered/cluster, node count,
  replication, tier sizes, links, batching, admission, GPU fleet);
* :class:`Backend` — ``ingest`` / ``submit`` / ``run`` / ``report`` over the
  engine :func:`build_engine` builds for the spec's topology, every run
  played on the event simulation, speaking
  :class:`ServeRequest` / :class:`ServeResponse` / :class:`RunReport`;
* :func:`profile_codec` — the offline codec profile a backend is built
  around, taken once per model and process and shared by every backend
  (``build_backend(spec, codec=...)`` injects another);
* :class:`Driver` / :func:`serve` — the arrival-driven open-loop runner that
  replays a workload's true Poisson arrival process (ingest events
  interleaved with queries, pluggable admission/shedding) through any
  backend.

``backends`` and ``driver`` are loaded lazily (PEP 562): the engines they
build import :mod:`.types` themselves, so the eager surface of this package
must stay limited to the leaf modules.
"""

from __future__ import annotations

from ..fleet.autoscale import AutoscaleSpec
from .spec import ServingSpec
from .types import RunReport, ServeRequest, ServeResponse

__all__ = [
    "AdmissionPolicy",
    "AdmitAll",
    "AutoscaleSpec",
    "Backend",
    "ConcurrencyLimitAdmission",
    "Driver",
    "RunReport",
    "ServeRequest",
    "ServeResponse",
    "ServingSpec",
    "TokenBucketAdmission",
    "build_backend",
    "build_engine",
    "profile_codec",
    "serve",
]

_LAZY = {
    "Backend": ".backends",
    "build_engine": ".backends",
    "build_backend": ".backends",
    "profile_codec": "..engine",
    "AdmissionPolicy": ".driver",
    "AdmitAll": ".driver",
    "TokenBucketAdmission": ".driver",
    "ConcurrencyLimitAdmission": ".driver",
    "Driver": ".driver",
    "serve": ".driver",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
