"""The benchmark under perfbench/ still runs against this program.

Both tests only read perfbench/: the self-test runs with bytecode
writing off, and the trace targets are read from the source text.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _trace_targets() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS list")


# Trace targets whose code the program dropped on purpose.  The benchmark
# changes only in a change of its own, so until that change drops them from
# perfbench/tracing.py they read 0 and are listed in the run's
# missing_targets.  learner.TrajectoryBuffer gave way to train's own
# episode arrays and learner.episode_batch.
RETIRED = {("learner", "TrajectoryBuffer.stacked")}


def test_every_trace_target_resolves():
    """A rename that would blind the per-layer trace fails here."""
    targets = _trace_targets()
    assert targets
    # once tracing.py drops a retired target, drop it from RETIRED too
    assert RETIRED <= set(targets)
    for module, attr in targets:
        holder = importlib.import_module(f"mcsgame.{module}")
        if (module, attr) in RETIRED:
            assert not hasattr(holder, attr.split(".")[0]), f"mcsgame.{module}.{attr} is back"
            continue
        for part in attr.split("."):
            assert hasattr(holder, part), f"mcsgame.{module}.{attr} is gone"
            holder = getattr(holder, part)
        assert callable(holder), f"mcsgame.{module}.{attr} is not callable"


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "selftest: ok"
