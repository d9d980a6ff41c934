"""repro — a from-scratch reproduction of CacheGen (SIGCOMM 2024).

CacheGen is a fast context-loading module for LLM serving: it encodes the KV
cache of a reusable long context into compact bitstreams (change-based
encoding, layer-wise quantization, arithmetic coding with channel/layer
probability models) and streams those bitstreams with bandwidth adaptation so
that the time-to-first-token stays within an SLO.

Public entry points
-------------------
* :class:`repro.ServingSpec` / :func:`repro.serve` — the unified serving API:
  declare the deployment (codec levels, store topology single/tiered/cluster,
  node count, replication, batching, admission) once, then drive any
  backend with the same requests and get one :class:`repro.RunReport` shape.
  The first backend of a model profiles its codec; :func:`repro.profile_codec`
  keeps that profile for the process, so later backends reuse it.
* :class:`repro.core.CacheGenEncoder` / :class:`repro.core.CacheGenDecoder` —
  the codec itself.
* :class:`repro.streaming.KVStreamer` — SLO-aware streaming of encoded chunks.
* :class:`repro.Tracer` / :func:`repro.write_chrome_trace` — full-run
  telemetry: per-request spans, resource timelines, a metrics registry, and
  Perfetto-loadable trace export (``serve(..., tracer=Tracer())``).
* :class:`repro.SLOObjective` / :func:`repro.write_dashboard` — operational
  observability: windowed time-series on every ``RunReport``
  (``report.timeseries``), burn-rate SLO alerting (``report.alerts``), and a
  self-contained HTML run dashboard.
* :class:`repro.FaultSchedule` / :class:`repro.ResiliencePolicy` — fault
  injection and self-healing: deterministic simulated-time fault schedules
  (``serve(..., faults=...)``) answered by retries, hedged reads, circuit
  breakers, background re-replication and graceful degradation, reported on
  ``report.resilience``.
* :class:`repro.GpuWorkerPool` / :class:`repro.AutoscaleSpec` — multi-GPU
  fleet serving: set ``gpu_workers`` / ``dispatch_policy`` / ``autoscale`` on
  the spec and the event engine dispatches across a pool of GPU workers.
* :mod:`repro.baselines` — every method the paper compares against.
* :mod:`repro.experiments` — one module per table/figure of the evaluation.
* :mod:`repro.cluster` — sharded, replicated, capacity-bounded KV-cache
  cluster with a multi-tenant serving frontend and workload generator.
"""

from .cluster import WorkloadGenerator
from .core import (
    CacheGenConfig,
    CacheGenDecoder,
    CacheGenEncoder,
    EncodingLevel,
    FittedCodec,
    KVCache,
)
from .faults import (
    BreakerPolicy,
    Corruption,
    FaultSchedule,
    GpuStraggler,
    HedgePolicy,
    LinkDegradation,
    NodeCrash,
    ResiliencePolicy,
    ResilienceReport,
    RetryPolicy,
)
from .llm import ComputeModel, ModelConfig, QualityModel, SyntheticLLM, get_model_config
from .network import ConstantTrace, NetworkLink, RandomTrace, StepTrace, gbps
from .serving import (
    AutoscaleSpec,
    DispatchPolicy,
    Driver,
    GpuWorkerPool,
    LeastLoadedDispatch,
    LocalityDispatch,
    RunReport,
    ServeRequest,
    ServeResponse,
    ServingSpec,
    StickyDispatch,
    build_backend,
    make_dispatch,
    profile_codec,
    serve,
)
from .streaming import KVStreamer, SLOAwareAdapter, prepare_chunks
from .telemetry import (
    AlertEngine,
    SLOObjective,
    TimeSeriesRecorder,
    Tracer,
    render_dashboard,
    render_diff_dashboard,
    write_chrome_trace,
    write_dashboard,
    write_jsonl,
)

__version__ = "2.0.0"

__all__ = [
    "AlertEngine",
    "AutoscaleSpec",
    "BreakerPolicy",
    "CacheGenConfig",
    "CacheGenDecoder",
    "CacheGenEncoder",
    "ComputeModel",
    "ConstantTrace",
    "Corruption",
    "DispatchPolicy",
    "Driver",
    "EncodingLevel",
    "FaultSchedule",
    "FittedCodec",
    "GpuStraggler",
    "GpuWorkerPool",
    "HedgePolicy",
    "KVCache",
    "KVStreamer",
    "LeastLoadedDispatch",
    "LinkDegradation",
    "LocalityDispatch",
    "ModelConfig",
    "NetworkLink",
    "NodeCrash",
    "QualityModel",
    "RandomTrace",
    "ResiliencePolicy",
    "ResilienceReport",
    "RetryPolicy",
    "RunReport",
    "SLOAwareAdapter",
    "SLOObjective",
    "ServeRequest",
    "ServeResponse",
    "ServingSpec",
    "StepTrace",
    "StickyDispatch",
    "SyntheticLLM",
    "TimeSeriesRecorder",
    "Tracer",
    "WorkloadGenerator",
    "__version__",
    "build_backend",
    "gbps",
    "get_model_config",
    "make_dispatch",
    "prepare_chunks",
    "profile_codec",
    "render_dashboard",
    "render_diff_dashboard",
    "serve",
    "write_chrome_trace",
    "write_dashboard",
    "write_jsonl",
]
