"""Print the size of each src/mcsgame module: lines and AST statements.

Line counts move when code is merely reflowed; statement counts do not,
so a cut that only joins or splits lines shows up as one.  Standard
library only.

    python tools/src_size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/mcsgame next to this script's parent.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def measure(path: Path) -> tuple[int, int]:
    """(line count, statement count) of one Python source file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return len(text.splitlines()), statements


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "mcsgame"
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no Python modules under {root}", file=sys.stderr)
        return 1
    width = max(len(f.name) for f in files)
    print(f"{'module'.ljust(width)}  {'lines':>6}  {'stmts':>6}")
    total_lines = total_stmts = 0
    for f in files:
        lines, stmts = measure(f)
        total_lines += lines
        total_stmts += stmts
        print(f"{f.name.ljust(width)}  {lines:6d}  {stmts:6d}")
    print(f"{'total'.ljust(width)}  {total_lines:6d}  {total_stmts:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
