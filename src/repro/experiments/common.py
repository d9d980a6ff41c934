"""Shared infrastructure for the evaluation-reproduction experiments.

Every table/figure module builds on the same pieces: a model + dataset
workbench that generates reference KV caches, a CacheGen encoder on the
model's offline profile, the standard set of methods to compare, and a
uniform result container that the benchmark harness can print as the
rows/series the paper reports.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..baselines import (
    CacheGenMethod,
    ContextLoadingMethod,
    LoadRequest,
    MethodResult,
    TextContextBaseline,
    UniformQuantizationBaseline,
)
from ..core.config import CacheGenConfig
from ..core.encoder import CacheGenEncoder
from ..core.kv_cache import KVCache
from ..datasets import get_dataset
from ..datasets.base import ContextRecord, SyntheticDataset
from ..llm.compute_model import ComputeModel
from ..llm.model_config import ModelConfig, get_model_config
from ..llm.quality import QualityModel
from ..llm.synthetic_model import SyntheticLLM
from ..network.bandwidth import ConstantTrace, gbps
from ..network.link import NetworkLink
from ..serving.engine import profile_codec

__all__ = ["ExperimentResult", "Workbench", "default_link", "experiment_cli"]

#: Reference KV caches a workbench keeps; the least recently used goes first.
_KV_CACHE_SIZE = 4


@dataclass
class ExperimentResult:
    """Rows of one reproduced table or figure."""

    name: str
    description: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def filter(self, **criteria: Any) -> list[dict[str, Any]]:
        """Rows matching all of the given column values."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    def format_table(self, columns: Sequence[str] | None = None, float_fmt: str = "{:.3f}") -> str:
        """Render the rows as a plain-text table (one line per row)."""
        if not self.rows:
            return f"{self.name}: (no rows)"
        # Rows of one result may differ in their keys (Figure 14's four panels):
        # the columns are the union, in first-seen order.
        columns = list(columns or dict.fromkeys(key for row in self.rows for key in row))
        lines = [f"# {self.name} — {self.description}", "\t".join(columns)]
        for row in self.rows:
            cells = []
            for column in columns:
                value = row.get(column, "")
                if isinstance(value, float):
                    cells.append(float_fmt.format(value))
                else:
                    cells.append(str(value))
            lines.append("\t".join(cells))
        return "\n".join(lines)


def default_link(bandwidth_gbps: float = 3.0) -> NetworkLink:
    """A constant-rate link (the paper's headline setting is 3 Gbps)."""
    return NetworkLink(ConstantTrace(gbps(bandwidth_gbps)))


class Workbench:
    """Prepares everything needed to evaluate methods on one model + dataset.

    The workbench owns the synthetic LLM, its compute model on an A40, a
    CacheGen encoder, a small set of dataset records, and a memo of the last
    few reference KV caches.  Its encoder codes with the model's one offline
    profile, :func:`~repro.serving.engine.profile_codec`'s, the codec every
    backend of that model serves with; the workbench fits nothing.
    Experiments ask it for :class:`LoadRequest` objects and evaluate any
    :class:`ContextLoadingMethod` against them.

    Parameters
    ----------
    model:
        Serving model name or configuration.
    dataset:
        Dataset name or instance.
    num_contexts:
        How many of the dataset's contexts to evaluate (the paper uses the
        full datasets; the reproduction defaults to a handful per point to
        keep the benchmark suite fast — increase for tighter estimates).
    context_token_cap:
        Optional cap on context lengths (used by fast test settings).
    """

    def __init__(
        self,
        model: ModelConfig | str = "mistral-7b",
        dataset: SyntheticDataset | str = "longchat",
        num_contexts: int = 3,
        context_token_cap: int | None = None,
    ) -> None:
        self.model = get_model_config(model) if isinstance(model, str) else model
        self.dataset = get_dataset(dataset) if isinstance(dataset, str) else dataset

        base_values = {self.dataset.task: self.dataset.base_quality_for(self.model.name)}
        self.quality_model = QualityModel(
            num_layers=self.model.sim_layers, base_values=base_values
        )
        self.llm = SyntheticLLM(self.model, quality_model=self.quality_model)
        self.compute = ComputeModel(self.model)

        records = self.dataset.records(num_contexts)
        if context_token_cap is not None:
            records = [
                ContextRecord(
                    context_id=record.context_id,
                    num_tokens=min(record.num_tokens, context_token_cap),
                    prompt_tokens=record.prompt_tokens,
                    task=record.task,
                    question=record.question,
                )
                for record in records
            ]
        self.records: list[ContextRecord] = records

        self.encoder = CacheGenEncoder(CacheGenConfig(), codec=profile_codec(self.model))
        self._kv_cache: OrderedDict[str, KVCache] = OrderedDict()

    # --------------------------------------------------------------- KV caches
    def reference_kv(self, record: ContextRecord) -> KVCache:
        """The lossless KV cache of a record (memoised)."""
        key = f"{record.context_id}:{record.num_tokens}"
        if key in self._kv_cache:
            self._kv_cache.move_to_end(key)
            return self._kv_cache[key]
        kv = self.llm.calculate_kv(record.context_id, record.num_tokens)
        self._kv_cache[key] = kv
        while len(self._kv_cache) > _KV_CACHE_SIZE:
            self._kv_cache.popitem(last=False)
        return kv

    # ---------------------------------------------------------------- requests
    def request_for(
        self,
        record: ContextRecord,
        link: NetworkLink | None = None,
        slo_s: float | None = None,
    ) -> LoadRequest:
        """Build a :class:`LoadRequest` for one record."""
        return LoadRequest(
            record=record,
            llm=self.llm,
            reference_kv=self.reference_kv(record),
            link=link or default_link(),
            compute_model=self.compute,
            quality_model=self.quality_model,
            slo_s=slo_s,
        )

    def evaluate(
        self,
        method: ContextLoadingMethod,
        link: NetworkLink | None = None,
        records: Iterable[ContextRecord] | None = None,
        slo_s: float | None = None,
    ) -> list[MethodResult]:
        """Evaluate one method over all (or the given) records, each load alone."""
        chosen = list(records) if records is not None else self.records
        return [
            method.evaluate(self.request_for(record, link=link, slo_s=slo_s))
            for record in chosen
        ]

    # ----------------------------------------------------------------- methods
    def standard_methods(self, quant_bits: Sequence[int] = (8,)) -> dict[str, ContextLoadingMethod]:
        """The three-way comparison used throughout §7.2/§7.3."""
        methods: dict[str, ContextLoadingMethod] = {"text": TextContextBaseline()}
        for bits in quant_bits:
            baseline = UniformQuantizationBaseline(bits)
            methods[baseline.name] = baseline
        methods["cachegen"] = self.cachegen_method()
        return methods

    def cachegen_method(self, adaptive: bool = True, fixed_level: str | None = None) -> CacheGenMethod:
        """A CacheGen method sharing this workbench's fitted encoder."""
        return CacheGenMethod(self.encoder, adaptive=adaptive, fixed_level=fixed_level)

    # --------------------------------------------------------------- summaries
    @staticmethod
    def mean(values: Iterable[float]) -> float:
        values = list(values)
        if not values:
            raise ValueError("no values to average")
        return float(sum(values) / len(values))

    @staticmethod
    def summarize(results: Sequence[MethodResult]) -> dict[str, float]:
        """Mean TTFT, size and quality of a method's results."""
        if not results:
            raise ValueError("no results to summarise")
        return {
            "ttft_s": Workbench.mean(r.ttft_s for r in results),
            "kv_size_mb": Workbench.mean(r.kv_size_bytes / 1e6 for r in results),
            "quality": Workbench.mean(r.quality.value for r in results),
            "relative_quality": Workbench.mean(r.quality.relative_quality for r in results),
        }


# ------------------------------------------------------------------------- CLI
def experiment_cli(argv: Sequence[str] | None = None) -> str:
    """Run one experiment by name and return its report as text.

    This is the body of ``python -m repro.experiments``; it returns the output
    instead of printing so the library stays print-free (the ``__main__``
    shim does the printing).  Two names are not experiments: ``all --out DIR``
    runs every experiment once at its defaults and writes the tables plus
    ``DIR/ledger.json``; ``verify LEDGER`` runs them again and reports what
    moved against that ledger, raising :class:`~repro.experiments.ledger.Moved`
    (exit status 1) if anything did (see :mod:`repro.experiments.ledger`).
    ``--trace-out`` / ``--trace-jsonl`` record the
    run's telemetry (experiments that accept a ``tracer``) and export it as a
    Perfetto-loadable Chrome trace / a structured JSONL event log;
    ``--metrics-out`` writes the run's metrics-registry snapshot as JSON;
    ``--dashboard-out`` renders the windowed run dashboard (window width from
    ``--window-s``, an optional TTFT SLO from ``--slo-ttft-s`` /
    ``--slo-target`` driving the burn-rate alerts); ``--gpu-workers N`` runs
    fleet-aware experiments with a pool of ``N`` GPU workers.
    """
    import argparse
    import inspect
    import json

    from . import ALL_EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one reproduced table/figure and print its rows; "
        "'all' writes every table plus ledger.json, 'verify' re-runs against a ledger.",
    )
    parser.add_argument("experiment", choices=[*sorted(ALL_EXPERIMENTS), "all", "verify"])
    parser.add_argument(
        "ledger", nargs="?", default=None, metavar="LEDGER", help="verify: the ledger.json to check"
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR", help="all: directory for the tables and ledger.json"
    )
    parser.add_argument(
        "--gpu-workers",
        type=int,
        default=None,
        metavar="N",
        help="size of the GPU worker fleet (experiments that accept gpu_workers)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run (open at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="write the run's structured JSONL event log",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics-registry snapshot as JSON",
    )
    parser.add_argument(
        "--dashboard-out",
        default=None,
        metavar="PATH",
        help="write the run's self-contained HTML dashboard",
    )
    parser.add_argument(
        "--window-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="dashboard window width (default: auto, ~60 windows over the run)",
    )
    parser.add_argument(
        "--slo-ttft-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="TTFT SLO threshold driving the dashboard's burn-rate alerts",
    )
    parser.add_argument(
        "--slo-target",
        type=float,
        default=0.99,
        metavar="FRACTION",
        help="fraction of requests that must meet --slo-ttft-s (default 0.99)",
    )
    args = parser.parse_args(argv)
    wants_telemetry = (
        args.trace_out is not None
        or args.trace_jsonl is not None
        or args.metrics_out is not None
        or args.dashboard_out is not None
    )
    if (args.out is None) != (args.experiment != "all"):
        parser.error("--out DIR goes with 'all', and only with it")
    if (args.ledger is None) != (args.experiment != "verify"):
        parser.error("a LEDGER path goes with 'verify', and only with it")
    if args.experiment in ("all", "verify"):
        if wants_telemetry or args.gpu_workers is not None:
            parser.error(f"{args.experiment} runs every experiment at its defaults")
        from .ledger import verify_ledger, write_artifacts

        if args.experiment == "all":
            return write_artifacts(args.out, ALL_EXPERIMENTS)
        return verify_ledger(args.ledger, ALL_EXPERIMENTS)
    run = ALL_EXPERIMENTS[args.experiment]

    tracer = None
    if wants_telemetry:
        if "tracer" not in inspect.signature(run).parameters:
            parser.error(
                f"{args.experiment} does not support tracing; traceable "
                "experiments: "
                + ", ".join(
                    sorted(
                        name
                        for name, fn in ALL_EXPERIMENTS.items()
                        if "tracer" in inspect.signature(fn).parameters
                    )
                )
            )
        from ..telemetry import Tracer

        tracer = Tracer()

    kwargs: dict[str, Any] = {}
    if tracer is not None:
        kwargs["tracer"] = tracer
    if args.gpu_workers is not None:
        if "gpu_workers" not in inspect.signature(run).parameters:
            parser.error(
                f"{args.experiment} does not support --gpu-workers; fleet-aware "
                "experiments: "
                + ", ".join(
                    sorted(
                        name
                        for name, fn in ALL_EXPERIMENTS.items()
                        if "gpu_workers" in inspect.signature(fn).parameters
                    )
                )
            )
        kwargs["gpu_workers"] = args.gpu_workers
    result = run(**kwargs)
    lines = [result.format_table()]
    if tracer is not None:
        from ..telemetry import write_chrome_trace, write_jsonl

        if args.trace_out is not None:
            lines.append(f"wrote Chrome trace to {write_chrome_trace(tracer, args.trace_out)}")
        if args.trace_jsonl is not None:
            lines.append(f"wrote event log to {write_jsonl(tracer, args.trace_jsonl)}")
        if args.metrics_out is not None:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.metrics.snapshot(), handle, indent=2, sort_keys=True)
            lines.append(f"wrote metrics snapshot to {args.metrics_out}")
        if args.dashboard_out is not None:
            from ..telemetry import (
                AlertEngine,
                SLOObjective,
                TimeSeriesRecorder,
                auto_window_s,
                write_dashboard,
            )

            window_s = args.window_s or auto_window_s(getattr(tracer, "now", 0.0))
            recorder = TimeSeriesRecorder.from_tracer(tracer, window_s=window_s)
            objectives = (
                [SLOObjective("ttft", args.slo_ttft_s, target=args.slo_target)]
                if args.slo_ttft_s is not None
                else []
            )
            alerts = AlertEngine(objectives).evaluate(recorder.windows())
            path = write_dashboard(
                args.dashboard_out,
                recorder,
                alerts=alerts,
                objectives=objectives,
                title=f"{args.experiment} dashboard",
            )
            lines.append(f"wrote dashboard to {path}")
    return "\n".join(lines)
