"""Reproductions of every table and figure in the paper's evaluation.

Each module exposes a ``run_*`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose rows mirror what the
paper reports.  The signature defaults are the settings the reproduction is
pinned at: ``python -m repro.experiments all --out DIR`` runs every entry of
``ALL_EXPERIMENTS`` at them and ``benchmarks/ledger.json`` records the rows
(see :mod:`repro.experiments.ledger`).  Pass larger ``num_contexts`` (and
drop the token caps) for tighter estimates.
"""

from .appendix_e import run_appendix_e
from .common import ExperimentResult, Workbench, default_link, experiment_cli
from .figure3 import run_figure3
from .figure4 import run_figure4
from .figure5 import run_figure5
from .figure7 import run_figure7
from .figure8 import run_figure8
from .figure9 import run_figure9
from .figure10 import run_figure10
from .figure11 import run_figure11
from .figure12 import run_figure12_concurrency, run_figure12_context_length
from .figure13 import run_figure13
from .figure14 import run_figure14
from .figure15 import run_figure15
from .figure16 import run_figure16
from .figure18 import run_figure18
from .figure19 import run_figure19
from .resilience import run_resilience
from .table1 import run_table1
from .table2 import run_table2
from .tiered_storage import run_tiered_storage

#: All experiment entry points keyed by the paper artefact they reproduce.
ALL_EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure7": run_figure7,
    "figure8": run_figure8,
    "figure9": run_figure9,
    "figure10": run_figure10,
    "figure11": run_figure11,
    "figure12-concurrency": run_figure12_concurrency,
    "figure12-context-length": run_figure12_context_length,
    "figure13": run_figure13,
    "figure14": run_figure14,
    "figure15": run_figure15,
    "figure16": run_figure16,
    "figure18": run_figure18,
    "figure19": run_figure19,
    "appendix-e": run_appendix_e,
    "tiered-storage": run_tiered_storage,
    "resilience": run_resilience,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "Workbench",
    "default_link",
    "experiment_cli",
    "run_appendix_e",
    "run_figure10",
    "run_figure11",
    "run_figure12_concurrency",
    "run_figure12_context_length",
    "run_figure13",
    "run_figure14",
    "run_figure15",
    "run_figure16",
    "run_figure18",
    "run_figure19",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_resilience",
    "run_table1",
    "run_table2",
    "run_tiered_storage",
]
