"""Process-wide enablement of the runtime sanitizers.

The :class:`~repro.serving.api.driver.Driver` takes an explicit ``simcheck=``
argument, but most sanitized runs come from the test suite, where threading a
flag through every ``serve()`` call would be noise.  This module holds the
*default*: ``REPRO_SIMCHECK=1`` in the environment (or the test suite's
fixture, which sets ``_default``) turns sanitizers on for every driver run
that did not say otherwise.
"""

from __future__ import annotations

import os

from .sanitizers import SimcheckConfig

__all__ = ["default_config"]

#: The process-wide config; ``None`` defers to ``REPRO_SIMCHECK``.
_default: SimcheckConfig | None = None


def default_config() -> SimcheckConfig | None:
    """The config a driver run uses when built with ``simcheck=None``.

    Resolution order: a set ``_default`` wins, then the ``REPRO_SIMCHECK``
    environment variable (any value but ``0``/empty enables strict checks),
    then ``None`` (sanitizers off).
    """
    if _default is not None:
        return _default
    env = os.environ.get("REPRO_SIMCHECK", "")
    if env and env != "0":
        return SimcheckConfig()
    return None
