"""Command-line entry point: ``python -m repro.experiments <name>`` (or ``all`` / ``verify``)."""

import sys

from .common import experiment_cli
from .ledger import Moved

try:
    print(experiment_cli(sys.argv[1:]))  # noqa: T201
except Moved as moved:
    print(moved)  # noqa: T201
    sys.exit(1)
