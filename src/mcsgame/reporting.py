"""Deterministic CSV, JSON and manifest emission.

Every artifact a command writes must be byte-identical across reruns
with the same config and seed, so floats are printed with %.17g (exact
round trip for IEEE doubles), newlines are always '\n', and nothing
time- or host-dependent enters hashed content.  A CSV table is a dict
of columns, {name: 1-D or 2-D array or list}: one row format is built
from the column dtypes, and a 2-D column f spreads into the columns
f_1 ... f_n.  The manifest carries a sha256 per artifact plus the fully
resolved config, which is what the determinism check compares.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from typing import Sequence

import numpy as np

__all__ = [
    "table_columns",
    "write_csv",
    "sha256_file",
    "write_manifest",
    "write_json",
]

MANIFEST_NAME = "manifest.json"

# the cell format of a column, by numpy dtype kind: bool, int, unsigned int, float, string
_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}
# rows formatted per block, so a long table is never held as Python objects all at once
BLOCK_ROWS = 128


def _quoted(s: str) -> str:
    return '"' + s.replace('"', '""') + '"' if any(ch in s for ch in ',"\n') else s


def table_columns(columns: dict) -> dict[str, np.ndarray]:
    """A table's 1-D columns by CSV column name; a 2-D column f becomes f_1 ... f_n."""
    spread = {}
    for name, values in columns.items():
        a = np.asarray(values)
        if a.ndim == 2:
            spread.update((f"{name}_{i}", c) for i, c in enumerate(a.T, 1))
        else:
            spread[name] = a
    if len({a.shape for a in spread.values()}) > 1:
        raise ValueError(f"columns of unequal length: { {n: a.shape for n, a in spread.items()} }")
    return spread


def write_csv(path: str, columns: dict) -> str:
    """Write a table of columns as CSV, BLOCK_ROWS rows per write; return the path."""
    spread = table_columns(columns)
    arrays = [np.array([_quoted(s) for s in a.tolist()]) if a.dtype.kind == "U" else a
              for a in spread.values()]
    row = ",".join(_FORMATS[a.dtype.kind] for a in arrays) + "\n"
    rows = len(arrays[0]) if arrays else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(spread) + "\n")
        for start in range(0, rows, BLOCK_ROWS):
            block = list(zip(*(a[start:start + BLOCK_ROWS].tolist() for a in arrays)))
            fh.write(row * len(block) % tuple(itertools.chain.from_iterable(block)))
    return path


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: str, command: str, config: dict, artifacts: Sequence[str]) -> str:
    """Hash the named artifacts and drop manifest.json next to them.

    config must already be fully resolved (defaults applied, overrides
    folded in) so the manifest alone reproduces the run.
    """
    from . import __version__

    entries = {}
    for name in sorted(artifacts):
        entries[name] = sha256_file(os.path.join(out_dir, name))
    manifest = {
        "format": "mcsgame-manifest",
        "version": 1,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "artifacts": entries,
    }
    return write_json(os.path.join(out_dir, MANIFEST_NAME), manifest)


def write_json(path: str, document) -> str:
    """Write a JSON document with sorted keys and a final newline; return the path."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
