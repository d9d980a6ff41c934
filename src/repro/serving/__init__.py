"""Serving integration: the end-to-end context-loading engine of §6.

The public surface is the unified API in :mod:`repro.serving.api`: declare a
:class:`~repro.serving.api.ServingSpec`, build a backend (or call
:func:`~repro.serving.api.serve`), and drive it with
:class:`~repro.serving.api.ServeRequest` objects.

Underneath, :mod:`repro.serving.engine` decides routing and
:mod:`repro.serving.concurrent` plays the queries — one or a batch — through
a discrete-event simulation of the shared links and GPU run queue; both are
built by ``build_backend``, not exported here.
"""

from .pipeline import IngestReport
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
