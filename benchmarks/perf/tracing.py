"""Host-clock span recorder, and the wrappers that feed it from outside.

The program under test carries no host-time instrumentation (simcheck rule
SIM001 bans wall-clock reads in ``src/repro``), so the per-layer numbers come
from here: for the duration of a traced run the public callables listed in
:data:`TARGETS` are replaced, by attribute, with wrappers that record a span
(stem, phase, start, end, parent) on a :class:`SpanRecorder`, and put back
afterwards.  Callables too hot to time without distorting them are counted
only.  This is not ``repro.telemetry.Tracer``: that one records *simulated*
time and is part of what the ``serve-chaos-observed`` workload measures.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Callable, Iterator

SETUP = "setup"
TIMED = "timed"


@dataclass(frozen=True)
class Target:
    """One public callable of the program, wrapped for a traced run."""

    #: Metric stem ``<layer>.<what>``; the layer is the module it lives in.
    stem: str
    module: str
    #: Class holding the callable, ``None`` for a module-level function.
    owner: str | None
    attr: str
    #: Maps the call's arguments to a count of work done (symbols, bytes).
    work: Callable[..., float] | None = None
    #: ``False`` for hot callables, which are counted and never timed.
    timed: bool = True


def _span(stem: str, module: str, owner: str | None, attr: str, work=None) -> Target:
    return Target(stem, f"repro.{module}", owner, attr, work)


def _count(stem: str, module: str, owner: str, attr: str) -> Target:
    return Target(stem, f"repro.{module}", owner, attr, timed=False)


TARGETS: tuple[Target, ...] = (
    _span("core.arith_encode", "core.arithmetic_coder", "ArithmeticEncoder", "encode",
          lambda self, symbols, contexts=None: len(symbols)),
    _span("core.arith_decode", "core.arithmetic_coder", "ArithmeticDecoder", "decode",
          lambda self, data, num_symbols, contexts=None: num_symbols),
    _span("core.fit", "core.encoder", "CacheGenEncoder", "fit"),
    _span("core.encode", "core.encoder", "CacheGenEncoder", "encode",
          lambda self, kv, level=None: kv.nbytes),
    _span("core.decode", "core.decoder", "CacheGenDecoder", "decode"),
    _span("core.decode", "core.decoder", "CacheGenDecoder", "decode_many"),
    _span("core.distortion", "core.kv_cache", "KVCache", "normalized_distortion_per_layer"),
    _span("core.concat", "core.kv_cache", "KVCache", "concat"),
    _span("streaming.prepare_chunks", "streaming.chunking", None, "prepare_chunks"),
    _span("llm.calculate_kv", "llm.synthetic_model", "SyntheticLLM", "calculate_kv"),
    _span("llm.generate", "llm.synthetic_model", "SyntheticLLM", "generate_with_kv"),
    _span("storage.put", "storage.kv_store", "KVCacheStore", "store_kv"),
    _span("storage.put", "storage.kv_store", "KVCacheStore", "store_prepared"),
    _span("storage.put", "storage.tiered", "TieredKVStore", "store_kv"),
    _span("storage.put", "storage.tiered", "TieredKVStore", "store_prepared"),
    _span("storage.get", "storage.kv_store", "KVCacheStore", "get_context"),
    _span("storage.get", "storage.kv_store", "KVCacheStore", "get_chunks"),
    _span("storage.get", "storage.tiered", "TieredKVStore", "get_context"),
    _span("storage.get", "storage.tiered", "TieredKVStore", "get_chunks"),
    _span("storage.flush_demotions", "storage.tiered", "TieredKVStore", "flush_demotions"),
    _span("cluster.locate", "cluster.sharded_store", "ShardedKVStore", "locate"),
    _span("cluster.store", "cluster.sharded_store", "ShardedKVStore", "store_kv"),
    _span("serving.concurrent.sim_run", "serving.concurrent.simulator",
          "ConcurrentLoadSimulator", "run"),
    _span("serving.concurrent.materialise", "serving.concurrent.processes",
          "ChunkedKVLoad", "materialise"),
    _span("serving.fleet.dispatch", "serving.fleet.pool", "GpuWorkerPool", "submit"),
    _span("serving.api.build_backend", "serving.api.backends", None, "build_backend"),
    _span("serving.api.driver", "serving.api.driver", "Driver", "run"),
    _span("serving.api.report", "serving.api.types", "RunReport", "from_responses"),
    _span("telemetry.export", "telemetry.export", None, "write_chrome_trace"),
    _span("simcheck.finalize", "simcheck.sanitizers", "SimcheckMonitor", "finalize"),
    _span("faults.apply", "faults.injector", "FaultInjector", "apply_due"),
    _span("faults.sweep", "faults.resilience", "ResilienceManager", "sweep"),
    # schedule_after and the sanitizer's override both end in SimClock.schedule.
    _count("serving.concurrent.events_scheduled", "serving.concurrent.events",
           "SimClock", "schedule"),
    _count("network.transfer_calls", "network.link", "NetworkLink", "transfer"),
    _count("faults.evaluate_read_calls", "faults.resilience", "ResilienceManager",
           "evaluate_read"),
)


@dataclass
class Totals:
    """What the spans of one stem add up to in one phase."""

    calls: int = 0
    self_s: float = 0.0
    #: Inclusive seconds of the outermost spans (same-stem nesting not doubled).
    total_s: float = 0.0
    work: float = 0.0


class SpanRecorder:
    """Spans on the host clock, kept in memory until the run ends."""

    def __init__(self) -> None:
        #: ``[stem, phase, start_s, end_s, parent index or -1, work]`` per span.
        self.spans: list[list] = []
        self.counts: dict[str, int] = {t.stem: 0 for t in TARGETS if not t.timed}
        self.phase = SETUP
        self._open: list[int] = []

    def enter_timed_region(self) -> None:
        """Set-up is over: later spans belong to the timed region, counts restart."""
        self.phase = TIMED
        for stem in self.counts:  # in place: the wrappers hold this dict
            self.counts[stem] = 0

    def begin(self, stem: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append([stem, self.phase, time.perf_counter(), 0.0, parent, 0.0])
        return index

    def end(self, index: int, work: float) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[5] = work
        self._open.pop()

    def totals(self, phase: str) -> dict[str, Totals]:
        """Per-stem calls, self time, inclusive time and work of one phase.

        A span's self time is its duration minus the part its child spans
        cover; a call is a span entered from outside its own stem, so a tiered
        store's ``store_prepared`` delegating to its hot store counts once.
        """
        spans = self.spans
        children_s = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                children_s[parent] += end - start
        out: dict[str, Totals] = {}
        for index, (stem, span_phase, start, end, parent, work) in enumerate(spans):
            if span_phase != phase:
                continue
            totals = out.setdefault(stem, Totals())
            totals.self_s += (end - start) - children_s[index]
            totals.work += work
            if parent < 0 or spans[parent][0] != stem:
                totals.calls += 1
                totals.total_s += end - start
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (one lane, nested)."""
        origin = self.spans[0][2] if self.spans else 0.0
        events = [
            {
                "name": stem,
                "cat": stem.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"phase": phase, "parent": parent, "work": work},
            }
            for stem, phase, start, end, parent, work in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": {"counts": self.counts}},
                handle,
            )


def _holders(target: Target, value: object) -> list[tuple[object, str]]:
    """Every namespace of the program in which ``value`` is bound.

    A method lives on its class.  A function may also have been bound by name
    into other modules (``from .chunking import prepare_chunks``), so every
    loaded ``repro`` module is searched.
    """
    module = importlib.import_module(target.module)
    if target.owner is not None:
        owner = getattr(module, target.owner)
        return [(owner, target.attr)] if vars(owner).get(target.attr) is value else []
    return [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "repro" or mod_name.startswith("repro."))
        for name, bound in list(vars(mod).items())
        if bound is value
    ]


def resolve(target: Target) -> object:
    """The object currently bound at a target (the raw class attribute)."""
    module = importlib.import_module(target.module)
    namespace = module if target.owner is None else getattr(module, target.owner)
    return vars(namespace)[target.attr]


def _wrap(recorder: SpanRecorder, target: Target, fn: Callable) -> Callable:
    stem, work = target.stem, target.work
    if not target.timed:
        counts = recorder.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[stem] += 1
            return fn(*args, **kwargs)

        return counted

    begin, end = recorder.begin, recorder.end

    @wraps(fn)
    def spanned(*args, **kwargs):
        index = begin(stem)
        try:
            return fn(*args, **kwargs)
        finally:
            end(index, work(*args, **kwargs) if work is not None else 0.0)

    return spanned


@contextlib.contextmanager
def tracing(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every target for the duration of the block, then restore them."""
    import repro  # noqa: F401  (loads the modules that bind targets by name)

    installed: list[tuple[Target, object, object]] = []
    try:
        for target in TARGETS:
            original = resolve(target)
            if isinstance(original, (staticmethod, classmethod)):
                wrapper = type(original)(_wrap(recorder, target, original.__func__))
            else:
                wrapper = _wrap(recorder, target, original)
            installed.append((target, original, wrapper))
            for namespace, name in _holders(target, original):
                setattr(namespace, name, wrapper)
        yield recorder
    finally:
        # Search again: a module imported during the run binds the wrapper.
        for target, original, wrapper in reversed(installed):
            for namespace, name in _holders(target, wrapper):
                setattr(namespace, name, original)
