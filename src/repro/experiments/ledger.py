"""The reproduction's ledger: every experiment's rows at full precision, with digests.

An experiment is pinned at exactly one set of settings: the defaults of its
``run_*`` signature plus ``CacheGenConfig()``.  ``python -m repro.experiments
all --out DIR`` runs every registered experiment once at those settings and
writes ``DIR/<name>.txt`` (the table a single-experiment invocation prints)
and ``DIR/ledger.json``: per experiment the rows as they were computed, a
SHA-256 of the rows, of the text and of the settings, and an informational
environment block.  ``python -m repro.experiments verify LEDGER`` runs them
again and reports, per experiment, ``equal`` or every cell that moved — a
numeric row-level diff, because the printed tables round to three decimals
and hide anything smaller.  The committed reference is
``benchmarks/ledger.json``; "output-identical" means ``verify`` prints
``equal`` for every experiment.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import platform
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from ..core.config import CacheGenConfig
from .common import ExperimentResult

__all__ = [
    "REL_TOL",
    "Moved",
    "canonical",
    "diff_entry",
    "diff_rows",
    "ledger_entry",
    "resolved_settings",
    "table_text",
    "verify_ledger",
    "write_artifacts",
]

#: Two numeric cells closer than this, relative to the larger, are the same
#: cell: the one allowance for float noise between platforms and BLAS builds.
REL_TOL = 1e-9

Experiment = Callable[[], ExperimentResult]


class Moved(Exception):
    """``verify`` found rows that differ from the ledger; ``str()`` is the report."""


# ---------------------------------------------------------------- canonical form
def canonical(value: Any) -> Any:
    """``value`` as plain JSON types: numpy scalars unwrapped, tuples as lists."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if dataclasses.is_dataclass(value):
        return canonical(dataclasses.asdict(value))
    raise TypeError(f"no canonical form for {type(value).__name__}: {value!r}")


def _sha256(value: Any) -> str:
    """Digest of a canonical value (key order and whitespace do not matter)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def resolved_settings(run: Experiment) -> dict[str, Any]:
    """What a bare ``run()`` is pinned at: its signature defaults and the codec's."""
    settings = {
        name: canonical(parameter.default)
        for name, parameter in inspect.signature(run).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    settings["CacheGenConfig"] = canonical(CacheGenConfig())
    return settings


def table_text(result: ExperimentResult) -> str:
    """The bytes ``python -m repro.experiments <name>`` prints for ``result``."""
    return result.format_table() + "\n"


def ledger_entry(run: Experiment, result: ExperimentResult) -> dict[str, Any]:
    """The ledger's record of ``result``, which ``run()`` produced."""
    rows = canonical(result.rows)
    settings = resolved_settings(run)
    return {
        "description": result.description,
        "settings": settings,
        "settings_sha256": _sha256(settings),
        "rows": rows,
        "rows_sha256": _sha256(rows),
        "text_sha256": hashlib.sha256(table_text(result).encode("utf-8")).hexdigest(),
    }


def _environment() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# -------------------------------------------------------------------------- diff
class _Absent:
    def __repr__(self) -> str:
        return "(absent)"


_ABSENT = _Absent()


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative_gap(before: float, after: float) -> float:
    return abs(before - after) / max(abs(before), abs(after))


def _same_cell(before: Any, after: Any) -> bool:
    if _is_number(before) and _is_number(after):
        if before == after or (before != before and after != after):  # equal, or both NaN
            return True
        return _relative_gap(before, after) <= REL_TOL
    return before == after


def _labels(rows: list[dict[str, Any]], width: int) -> list[str]:
    return [
        ", ".join(f"{column}={cell!r}" for column, cell in list(row.items())[:width])
        for row in rows
    ]


def _key_width(rows: list[dict[str, Any]]) -> int:
    """Fewest leading cells that tell the rows of a table apart.

    Every experiment lists what a row *is* (method, model, sweep point) before
    what was measured, so the shortest distinguishing prefix is the row's
    identity: ``bandwidth_gbps, method`` for Figure 11, ``panel, method`` or
    ``panel, representation`` for Figure 14.
    """
    longest = max(map(len, rows), default=0)
    for width in range(1, longest):
        labels = _labels(rows, width)
        if len(set(labels)) == len(labels):
            return width
    return longest


def _keyed(rows: list[dict[str, Any]], width: int) -> dict[str, dict[str, Any]]:
    """Rows by the label of their first ``width`` cells (repeats numbered)."""
    keyed: dict[str, dict[str, Any]] = {}
    for label, row in zip(_labels(rows, width), rows):
        key, repeat = label, 1
        while key in keyed:
            repeat += 1
            key = f"{label} #{repeat}"
        keyed[key] = row
    return keyed


def _cell_moves(before: dict[str, Any], after: dict[str, Any]) -> list[str]:
    """``column: was -> now`` for every cell of a row that moved."""
    moves = []
    for column in dict.fromkeys([*before, *after]):
        was, now = before.get(column, _ABSENT), after.get(column, _ABSENT)
        if _same_cell(was, now):
            continue
        size = (
            f" (rel {_relative_gap(was, now):.1e})" if _is_number(was) and _is_number(now) else ""
        )
        moves.append(f"{column}: {was!r} -> {now!r}{size}")
    return moves


def diff_rows(reference: list[dict[str, Any]], rows: list[dict[str, Any]]) -> list[str]:
    """Every row added or removed and every cell that moved, one line each.

    A key may take in a measured cell (Figure 18's ``kv_size_mb``), so a
    removed row is first paired, in table order, with an added row equal to
    it cell for cell: a key that moved within ``REL_TOL`` is no move.
    """
    width = _key_width(reference)
    old, new = _keyed(reference, width), _keyed(rows, width)
    removed = [key for key in old if key not in new]
    added = [key for key in new if key not in old]
    for key in list(removed):
        twin = next((other for other in added if not _cell_moves(old[key], new[other])), None)
        if twin is not None:
            removed.remove(key)
            added.remove(twin)
    moves = [f"row [{key}] removed" for key in removed]
    moves += [f"row [{key}] added" for key in added]
    for key, before in old.items():
        if key in new:
            moves += [f"row [{key}] {move}" for move in _cell_moves(before, new[key])]
    return moves


def diff_entry(reference: Mapping[str, Any], entry: Mapping[str, Any]) -> list[str]:
    """What separates a fresh entry from the ledger's; empty when they are equal."""
    moves = []
    if _sha256(reference["rows"]) != reference["rows_sha256"]:
        # Edited by hand or merged badly: the digests below would compare nothing.
        moves.append("ledger: rows_sha256 is not the digest of the ledger's rows")
    if entry["settings_sha256"] != reference["settings_sha256"]:
        old, new = reference["settings"], entry["settings"]
        moves += [
            f"setting {name}: {old.get(name, _ABSENT)!r} -> {new.get(name, _ABSENT)!r}"
            for name in dict.fromkeys([*old, *new])
            if old.get(name, _ABSENT) != new.get(name, _ABSENT)
        ]
    if entry["rows_sha256"] != reference["rows_sha256"]:
        moves += diff_rows(reference["rows"], entry["rows"])
    elif entry["text_sha256"] != reference["text_sha256"]:
        # Only checked on bit-equal rows: noise within REL_TOL may round differently.
        moves.append("text: the rendering changed (rows equal)")
    return moves


# ------------------------------------------------------------------ all / verify
def _render(environment: dict[str, str], entries: Mapping[str, Mapping[str, Any]]) -> str:
    """The ledger as JSON with one row per line, so a figure-diff is a line diff."""

    def field(key: str, value: Any) -> str:
        if key == "rows":
            rows = ",\n".join(f"    {json.dumps(row)}" for row in value)
            return f'   "rows": [\n{rows}\n   ]'
        return f"   {json.dumps(key)}: {json.dumps(value)}"

    experiments = ",\n".join(
        f"  {json.dumps(name)}: {{\n"
        + ",\n".join(field(key, value) for key, value in entry.items())
        + "\n  }"
        for name, entry in entries.items()
    )
    return (
        f'{{\n "environment": {json.dumps(environment)},\n'
        f' "experiments": {{\n{experiments}\n }}\n}}\n'
    )


def write_artifacts(out_dir: str | Path, experiments: Mapping[str, Experiment]) -> str:
    """Run every experiment once; write ``<name>.txt`` each and one ``ledger.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = {}
    lines = []
    for name, run in experiments.items():
        result = run()
        entry = entries[name] = ledger_entry(run, result)
        (out / f"{name}.txt").write_text(table_text(result), encoding="utf-8")
        lines.append(f"{name}: {len(entry['rows'])} rows, sha256 {entry['rows_sha256'][:16]}")
    path = out / "ledger.json"
    path.write_text(_render(_environment(), entries), encoding="utf-8")
    lines.append(f"wrote {path} and {len(entries)} tables")
    return "\n".join(lines)


def verify_ledger(path: str | Path, experiments: Mapping[str, Experiment]) -> str:
    """Re-run every experiment against a ledger; :class:`Moved` if any differs."""
    reference = json.loads(Path(path).read_text(encoding="utf-8"))["experiments"]
    lines = []
    moved = []
    for name in dict.fromkeys([*reference, *experiments]):
        if name not in experiments:
            moves = ["in the ledger, not registered in ALL_EXPERIMENTS"]
        elif name not in reference:
            moves = ["registered in ALL_EXPERIMENTS, not in the ledger"]
        else:
            run = experiments[name]
            moves = diff_entry(reference[name], ledger_entry(run, run()))
        lines.append(f"{name}: moved" if moves else f"{name}: equal")
        lines += [f"  {move}" for move in moves]
        if moves:
            moved.append(name)
    if moved:
        raise Moved("\n".join([*lines, f"moved: {', '.join(moved)}"]))
    return "\n".join(lines)
