"""Serving integration: the context-loading module of §6.

The public surface is the unified API in :mod:`repro.serving.api`: declare a
:class:`~repro.serving.api.ServingSpec`, build its one
:class:`~repro.serving.api.Backend` (or call :func:`~repro.serving.api.serve`),
and drive it with :class:`~repro.serving.api.ServeRequest` objects.  The
backend owns the deployment — store topology, links, synthetic LLM, encoder
and compute model — and plays every batch of queries on a discrete-event
simulation of the shared links and GPU run queue
(:mod:`repro.serving.concurrent`); :mod:`repro.serving.engine` keeps the
offline codec profile each model's backends share.
"""

from .api import (
    AutoscaleSpec,
    Driver,
    RunReport,
    ServeRequest,
    ServeResponse,
    ServingSpec,
    build_backend,
    profile_codec,
    serve,
)
from .api.types import IngestReport
from .fleet import (
    DispatchPolicy,
    GpuWorkerPool,
    LeastLoadedDispatch,
    LocalityDispatch,
    StickyDispatch,
    make_dispatch,
)

__all__ = [
    "AutoscaleSpec",
    "DispatchPolicy",
    "Driver",
    "GpuWorkerPool",
    "IngestReport",
    "LeastLoadedDispatch",
    "LocalityDispatch",
    "RunReport",
    "ServeRequest",
    "ServeResponse",
    "ServingSpec",
    "StickyDispatch",
    "build_backend",
    "make_dispatch",
    "profile_codec",
    "serve",
]
