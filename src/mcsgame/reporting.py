"""Deterministic CSV, JSON and manifest emission.

Every artifact a command writes must be byte-identical across reruns
with the same config and seed, so floats are printed with %.17g (exact
round trip for IEEE doubles), newlines are always '\n', and nothing
time- or host-dependent enters hashed content.  The manifest carries a
sha256 per artifact plus the fully resolved config, which is what the
determinism check compares.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Sequence

__all__ = [
    "format_value",
    "write_csv",
    "sha256_file",
    "write_manifest",
    "write_json",
]

MANIFEST_NAME = "manifest.json"


def format_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, int):
        return str(v)
    s = str(v)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write rows under a header, one line at a time; return the path."""
    width = len(header)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != width:
                raise ValueError(f"row width {len(row)} != header width {width}")
            fh.write(",".join(format_value(v) for v in row) + "\n")
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
