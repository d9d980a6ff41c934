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
  backend with the same requests and get one
  :class:`~repro.serving.api.RunReport` shape.
  The first backend of a model loads its codec profile (mistral-7b's
  default one ships with the package) or profiles it;
  :func:`repro.profile_codec` keeps that profile for the process, so later
  backends reuse it.
* :class:`repro.CacheGenEncoder` / :class:`repro.CacheGenDecoder` — the
  codec itself.
* :class:`repro.streaming.SLOAwareAdapter` — the per-chunk bandwidth
  adaptation of encoded chunks.  One event engine
  (:mod:`repro.serving.concurrent`) times every context load, served or
  evaluated by the method harness.
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
* :class:`repro.serving.fleet.GpuWorkerPool` / :class:`repro.AutoscaleSpec` — multi-GPU
  fleet serving: set ``gpu_workers`` / ``dispatch_policy`` / ``autoscale`` on
  the spec and the event engine dispatches across a pool of GPU workers.
* :mod:`repro.baselines` — every method the paper compares against.
* :mod:`repro.experiments` — one module per table/figure of the evaluation.
* :mod:`repro.cluster` — sharded, replicated, capacity-bounded KV-cache
  cluster with a multi-tenant serving frontend and workload generator.

``repro`` exports the names that examples, README snippets, scripts and CI
import from it; every other public class lives in its subpackage
(``repro.core``, ``repro.llm``, ``repro.network``, ``repro.serving``,
``repro.streaming``, ``repro.faults``, ``repro.telemetry``).
"""

__version__ = "2.0.0"

__all__ = [
    "AutoscaleSpec",
    "CacheGenConfig",
    "CacheGenDecoder",
    "CacheGenEncoder",
    "ComputeModel",
    "ConstantTrace",
    "Corruption",
    "Driver",
    "FaultSchedule",
    "LinkDegradation",
    "NetworkLink",
    "NodeCrash",
    "ResiliencePolicy",
    "ResilienceReport",
    "SLOObjective",
    "ServeRequest",
    "ServeResponse",
    "ServingSpec",
    "StepTrace",
    "SyntheticLLM",
    "Tracer",
    "WorkloadGenerator",
    "__version__",
    "build_backend",
    "gbps",
    "get_model_config",
    "profile_codec",
    "render_diff_dashboard",
    "serve",
    "write_chrome_trace",
    "write_dashboard",
    "write_jsonl",
]


def _lazy_exports(package: str, sources: dict[str, tuple[str, ...]]):
    """Return a package's PEP 562 ``__getattr__``.

    ``sources`` maps a module path relative to ``package`` (``".trace"``) to
    the public names that module defines.  Importing the package then imports
    none of them: the first read of a name imports its module and caches the
    value in the package namespace, so later reads are plain global lookups.
    ``__all__`` and ``from package import *`` see every name, and
    a submodule not imported yet resolves as an attribute too
    (``repro.serving`` after a bare ``import repro``).  The helper lives here,
    not in a module of its own, because every subpackage has already loaded
    this one.

    Example::

        __getattr__ = _lazy_exports(__name__, {".trace": ("Tracer",)})
    """
    import sys
    from importlib import import_module

    namespace = sys.modules[package].__dict__
    owner = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    return __getattr__


# Each name is imported from its subpackage on first use, so ``import
# repro.core`` loads the codec and nothing above it.
__getattr__ = _lazy_exports(
    __name__,
    {
        ".cluster": ("WorkloadGenerator",),
        ".core": ("CacheGenConfig", "CacheGenDecoder", "CacheGenEncoder"),
        ".faults": (
            "Corruption",
            "FaultSchedule",
            "LinkDegradation",
            "NodeCrash",
            "ResiliencePolicy",
            "ResilienceReport",
        ),
        ".llm": ("ComputeModel", "SyntheticLLM", "get_model_config"),
        ".network": ("ConstantTrace", "NetworkLink", "StepTrace", "gbps"),
        ".serving": (
            "AutoscaleSpec",
            "Driver",
            "ServeRequest",
            "ServeResponse",
            "ServingSpec",
            "build_backend",
            "profile_codec",
            "serve",
        ),
        ".telemetry": (
            "SLOObjective",
            "Tracer",
            "render_diff_dashboard",
            "write_chrome_trace",
            "write_dashboard",
            "write_jsonl",
        ),
    },
)
