"""Host-time benchmark of the reproduction, measured from outside ``src/repro``.

See ``README.md`` in this directory; ``run.py`` is the entry point.
"""
