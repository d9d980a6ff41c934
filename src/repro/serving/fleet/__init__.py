"""Multi-GPU fleet serving: worker pool, dispatch policies, autoscaling.

This package scales the event-driven concurrent engine from one
:class:`~repro.serving.concurrent.resources.GpuScheduler` per node group to a
:class:`~repro.serving.fleet.pool.GpuWorkerPool` of them:

* :mod:`~repro.serving.fleet.dispatch` — pluggable, deterministic routing
  (least-loaded, locality-by-batch-key, sticky-by-session).
* :mod:`~repro.serving.fleet.autoscale` — the declarative
  :class:`AutoscaleSpec` policy (bounds, watermarks, warm-up delay).
* :mod:`~repro.serving.fleet.pool` — the pool runtime plus the autoscaler
  that grows/shrinks it on the simulated clock.

Most users never import this package directly: set ``gpu_workers``,
``dispatch_policy`` and ``autoscale`` on a
:class:`~repro.serving.api.ServingSpec` and the concurrent backend builds
the pool for you.
"""

from __future__ import annotations

from ... import _lazy_exports
from .autoscale import AutoscaleSpec
from .dispatch import (
    DISPATCH_POLICIES,
    DispatchPolicy,
    LeastLoadedDispatch,
    LocalityDispatch,
    StickyDispatch,
    make_dispatch,
)

__all__ = [
    "AutoscaleSpec",
    "DISPATCH_POLICIES",
    "DispatchPolicy",
    "GpuWorkerPool",
    "LeastLoadedDispatch",
    "LocalityDispatch",
    "POOL_TRACK",
    "StickyDispatch",
    "make_dispatch",
]

# GpuWorkerPool pulls in the concurrent engine's resources; load it lazily so
# importing the fleet package (e.g. from api.spec for AutoscaleSpec) cannot
# re-enter a partially initialised serving package.
__getattr__ = _lazy_exports(__name__, {".pool": ("GpuWorkerPool", "POOL_TRACK")})
