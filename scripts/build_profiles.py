#!/usr/bin/env python
"""Write (or check) the codec profiles the package ships.

``profile_codec`` loads ``src/repro/serving/profiles/<model>.npz`` instead of
fitting whenever the file was written under the requested key.  This script
fits each model of ``SHIPPED`` at ``CacheGenConfig()`` from freshly drawn
samples — never through the process memo or the files — and writes those
files:

    PYTHONPATH=src python scripts/build_profiles.py           # rewrite every file
    PYTHONPATH=src python scripts/build_profiles.py --check   # exit 1, naming every stale file

Rerun it in the same commit as any change that moves a profile: the
``SyntheticLLM`` samples, quantization or the fit.  ``--check`` compares the
files' arrays, not their bytes, because ``.npz`` members carry timestamps.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro.core import CacheGenConfig
from repro.llm import LLAMA_7B, LLAMA_34B, LLAMA_70B, MISTRAL_7B, ModelConfig
from repro.serving.engine import _PROFILE_DIR, _fit_profile, _profile_key

#: The models whose default profile ships: mistral-7b, which every served
#: workload, example and default ``ServingSpec`` uses, and the llama models the
#: experiments' ``Workbench``es code with.  Add a model, and its file, in the
#: change that gives its default profile a caller.
SHIPPED: list[ModelConfig] = [MISTRAL_7B, LLAMA_7B, LLAMA_34B, LLAMA_70B]


def write(model: ModelConfig, directory: Path) -> Path:
    """Fit ``model``'s default profile afresh and save it in ``directory``."""
    config = CacheGenConfig()
    path = Path(directory) / f"{model.name}.npz"
    _fit_profile(model, config).save(path, key=_profile_key(model, config))
    return path


def _arrays(path: Path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def same_arrays(left: Path, right: Path) -> bool:
    """Whether two ``.npz`` files hold the same members, dtypes and values."""
    try:
        ours, theirs = _arrays(left), _arrays(right)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return False
    return ours.keys() == theirs.keys() and all(
        ours[name].dtype == theirs[name].dtype and np.array_equal(ours[name], theirs[name])
        for name in ours
    )


def stale(models: list[ModelConfig], directory: Path) -> list[Path]:
    """The files of ``directory`` a fresh fit of ``models`` would change (or add)."""
    found = []
    with tempfile.TemporaryDirectory() as scratch:
        for model in models:
            shipped = Path(directory) / f"{model.name}.npz"
            if not same_arrays(shipped, write(model, Path(scratch))):
                found.append(shipped)
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="write nothing; exit 1 if any file is stale"
    )
    args = parser.parse_args(argv)
    if args.check:
        found = stale(SHIPPED, _PROFILE_DIR)
        for path in found:
            print(f"stale: {path}; rerun scripts/build_profiles.py")
        return 1 if found else 0
    _PROFILE_DIR.mkdir(exist_ok=True)
    for model in SHIPPED:
        path = write(model, _PROFILE_DIR)
        print(f"{path} ({path.stat().st_size / 1024:.0f} KiB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
