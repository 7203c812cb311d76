"""Smoke test of tools/src_size.py, the line and statement count of src/mcsgame."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_size_rows_parse_and_total_is_their_sum():
    package = ROOT / "src" / "mcsgame"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_size.py"), str(package)],
        capture_output=True, text=True, check=True,
    )
    header, *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert header == ["module", "lines", "stmts"]
    assert [r[0] for r in rows] == sorted(p.name for p in package.glob("*.py"))
    counts = [(int(lines), int(stmts)) for _, lines, stmts in rows]
    assert total == ["total", str(sum(c[0] for c in counts)), str(sum(c[1] for c in counts))]
