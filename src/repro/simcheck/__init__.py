"""Correctness tooling for the event simulation: lint + runtime sanitizers.

The reproduction's results are only as good as the determinism of its
discrete-event core.  ``repro.simcheck`` defends that determinism on two
fronts:

* **Static analysis** (:mod:`repro.simcheck.lint`, ``python -m repro.simcheck``):
  AST rules SIM001–SIM005 flag wall-clock reads, unseeded RNG, set iteration,
  float-timestamp equality and mutable defaults, with per-line
  ``# simcheck: ignore[...]`` suppression and a committed baseline.
* **Runtime sanitizers** (:mod:`repro.simcheck.sanitizers`,
  :mod:`repro.simcheck.invariants`, :mod:`repro.simcheck.race`): a
  :class:`ClockSanitizer` that records past-time schedules, conservation
  invariant checks on traced runs (span sums == TTFT breakdown, busy ≤
  elapsed, gauges ≥ 0, store bytes ≤ capacity) and an event-order race
  detector that perturbs same-timestamp tie-breaks.  Enable per run with
  ``serve(..., simcheck=True)``, per process with ``REPRO_SIMCHECK=1``.
"""

from .. import _lazy_exports

__all__ = [
    "ALL_RULES",
    "LintViolation",
    "lint_paths",
    "lint_source",
    "RaceReport",
    "check_spec_order_independence",
    "find_order_race",
    "ClockSanitizer",
    "SimcheckConfig",
    "SimcheckError",
    "SimcheckMonitor",
    "SimcheckReport",
    "SimcheckViolation",
]

# Names resolve on first use: a plain serve() loads neither lint nor race.
__getattr__ = _lazy_exports(
    __name__,
    {
        ".lint": ("ALL_RULES", "LintViolation", "lint_paths", "lint_source"),
        ".race": ("RaceReport", "check_spec_order_independence", "find_order_race"),
        ".sanitizers": (
            "ClockSanitizer",
            "SimcheckConfig",
            "SimcheckError",
            "SimcheckMonitor",
            "SimcheckReport",
            "SimcheckViolation",
        ),
    },
)
