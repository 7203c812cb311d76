#!/usr/bin/env python3
"""Self-test of the benchmark, in smoke mode; asserts no timing bound.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs one short command untraced
and traced, and checks that the result line names exactly the declared
metrics with their units, that every command passed and had its output
checked, and that the traced counts repeated.  It then checks that the
benchmark refuses to run, with a nonzero exit and no result line, in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_output(spec: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["perfbench"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        errors.append(f"{where}: metrics {got} != declared {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
    if not (result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0):
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']} {record.get('failures')}")
    if record.get("checks_run") != result["attempted"]:
        errors.append(f"{where}: {record.get('checks_run')} checks for {result['attempted']} commands")
    if trace and not record.get("counts_repeat"):
        errors.append(f"{where}: traced counts did not repeat")
    return errors


def check_refuses_without_program(spec: dict) -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, spec["workloads"][0]["name"], 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place when a run is using it
            bare.parent.rmdir()
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"without src/ the benchmark exited {proc.returncode} and printed {last[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_output(spec, w["name"], trace, run(ROOT, w["name"], 1, trace))
    errors += check_refuses_without_program(spec)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
