"""Write and check the reference outputs under tests/golden/.

    python tools/golden.py --check
    python tools/golden.py --write [GROUP ...]

Each case is one `mcsgame` command with a fixed seed and config; its
reference is the files it writes (gradcheck: its standard output) under
tests/golden/<case>/.  --write runs the cases of the named groups
(static, sweep, gradcheck, train; default: all) and replaces their
references.  --check runs every case and compares each file with its
reference.  It prints, per file, whether the bytes are identical, and
if not, the largest relative and absolute difference of a float; it
exits 1 when a file differs by more than its tolerance.

Integers and strings must match exactly.  Floats must match within the
file's tolerance, |a - b| <= atol + rtol * max(|a|, |b|), listed in
TOLERANCES with the reason for each: the bits of a float can depend on
the BLAS and on numpy's SIMD math functions, so exact bytes would tie
the check to one host.  tests/test_golden.py runs the same comparison
in tier-1.

A change that moves outputs on purpose regenerates the references of
the groups it moves, in the same change, and states the drift --check
reported before.  Standard library only, apart from the package itself,
which is imported from src/ next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# (relative, absolute) tolerance of a float, per file name
TOLERANCES = {
    # The solver is Newton on closed-form user terms, so a price or
    # payoff moves by a few ulps with the math library; grad_residual is
    # rounding noise below the 1e-8 convergence threshold, hence atol.
    "equilibrium.csv": (1e-12, 1e-12),
    "summary.csv": (1e-12, 1e-9),
    "sweep_mus.csv": (1e-12, 1e-12),
    "sweep_summary.csv": (1e-12, 1e-9),
    # A finite-difference error is itself mostly rounding noise, printed
    # to 4 digits; a changed bit in a network pass moves its last digits.
    "stdout.txt": (1e-2, 0.0),
    # Training feeds every episode's update into the next one, so a
    # changed last bit in one network pass drifts every later episode.
    # Moving the critic's per-step passes into one batch pass per
    # episode drifted episodes.csv by at most 2.8e-12 relative over 40
    # episodes and the small checkpoint by 4.1e-16; 1e-10 allows about
    # 35 times the larger.
    "episodes.csv": (1e-10, 1e-12),
    "baselines.csv": (1e-10, 1e-12),
    "steps.csv": (1e-10, 1e-12),
    "checkpoint.json": (1e-10, 1e-12),
}

def _cases() -> dict:
    """{case name: (group, argv without --out, files kept)}."""
    cases = {}
    laws = ("uniform", "linear")
    statics = [(seed, law, n) for seed in (1, 2, 3) for law in laws for n in (5, 25)]
    # the 200-user seed-3 markets hold users at their threshold (below_threshold, x_star 0)
    statics += [(3, law, 200) for law in laws]
    for seed, law, n in statics:
        cases[f"static-s{seed}-{law}-n{n}"] = ("static", [
            "static", "--seed", str(seed), "--set", f'scenario.demand_kind="{law}"',
            "--set", f"scenario.n_mus={n}"], ("equilibrium.csv", "summary.csv"))
    sweeps = {
        "delta": ("[0.1,0.4,0.7,1.0]", "uniform", ("--set", "scenario.unit_cost_range=[0,0]")),
        "cost": ("[0,0.3,0.6,0.9]", "uniform", ("--set", "scenario.own_value_range=[1,1]")),
        "demand_upper": ("[20,25,30]", "linear", ("--set", "scenario.utility_scale=30")),
        "lambda": ("[20,30,40,50]", "uniform", ()),
    }
    for axis, (values, law, extra) in sweeps.items():
        cases[f"sweep-{axis}"] = ("sweep", [
            "sweep", "--seed", "0", "--svg", "off", "--set", f'sweep.axis="{axis}"',
            "--set", f"sweep.values={values}", "--set", f'scenario.demand_kind="{law}"', *extra],
            ("sweep_mus.csv", "sweep_summary.csv"))
    for seed in (0, 1, 7):
        cases[f"gradcheck-s{seed}"] = ("gradcheck", ["gradcheck", "--seed", str(seed)],
                                       ("stdout.txt",))
    cases["train-s3-e40"] = ("train", [
        "train", "--seed", "3", "--svg", "off", "--set", "train.episodes=40"],
        ("episodes.csv", "baselines.csv"))
    cases["train-s3-small"] = ("train", [
        "train", "--seed", "3", "--svg", "off", "--steps-trace", "on",
        "--set", "train.hidden=[8]", "--set", "train.steps_per_batch=16",
        "--set", "train.episodes=3", "--set", "baseline_steps=50"],
        ("checkpoint.json", "steps.csv"))
    return cases


CASES = _cases()
GROUPS = tuple(dict.fromkeys(group for group, _, _ in CASES.values()))


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case with its output under tmp; {file name: bytes} of the files it keeps."""
    from mcsgame.cli import main

    _, argv, files = CASES[name]
    out = tmp / name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([*argv, "--out", str(out)] if argv[0] != "gradcheck" else argv)
    if rc != 0:
        raise RuntimeError(f"{name}: exit {rc}")
    return {f: stdout.getvalue().encode() if f == "stdout.txt" else (out / f).read_bytes()
            for f in files}


_SPLIT = re.compile(r"[,\s]+")


def _number(token: str):
    """An int for an integer token, a float for another number, else None."""
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return None


class _Drift:
    """The largest float differences seen, and the first value out of tolerance."""

    def __init__(self, rtol: float, atol: float):
        self.rtol, self.atol = rtol, atol
        self.rel = self.abs = 0.0
        self.failure = None

    def fail(self, where: str, want, got):
        if self.failure is None:
            self.failure = f"{where}: reference {want!r}, got {got!r}"

    def value(self, where: str, want, got):
        if type(want) is type(got) and want == got:
            return
        # a float on either side (a float cell may print as an integer)
        # allows the tolerance; ints, strings and bools match exactly
        kinds = {type(want), type(got)}
        if float not in kinds or not kinds <= {int, float} or not (
                math.isfinite(want) and math.isfinite(got)):
            self.fail(where, want, got)
            return
        diff = abs(want - got)
        scale = max(abs(want), abs(got))
        if diff == 0.0:
            return
        self.abs = max(self.abs, diff)
        self.rel = max(self.rel, diff / scale)
        if diff > self.atol + self.rtol * scale:
            self.fail(where, want, got)

    def tree(self, where: str, want, got):
        if isinstance(want, dict) and isinstance(got, dict):
            if list(want) != list(got):
                self.fail(where, list(want), list(got))
                return
            for key in want:
                self.tree(f"{where}.{key}", want[key], got[key])
        elif isinstance(want, list) and isinstance(got, list):
            if len(want) != len(got):
                self.fail(where, f"{len(want)} entries", f"{len(got)} entries")
                return
            for i, (w, g) in enumerate(zip(want, got)):
                self.tree(f"{where}[{i}]", w, g)
        else:
            self.value(where, want, got)

    def text(self, want: str, got: str):
        want_lines, got_lines = want.splitlines(), got.splitlines()
        if len(want_lines) != len(got_lines):
            self.fail("lines", len(want_lines), len(got_lines))
            return
        for i, (w, g) in enumerate(zip(want_lines, got_lines), 1):
            w_tokens, g_tokens = _SPLIT.split(w), _SPLIT.split(g)
            if len(w_tokens) != len(g_tokens):
                self.fail(f"line {i}", w, g)
                continue
            for wt, gt in zip(w_tokens, g_tokens):
                if wt != gt:
                    wn, gn = _number(wt), _number(gt)
                    self.value(f"line {i}", wt if wn is None else wn, gt if gn is None else gn)


def compare(file_name: str, want: bytes, got: bytes) -> tuple[bool, str]:
    """(within tolerance, one-line report) of an output file against its reference."""
    if want == got:
        return True, "identical bytes"
    drift = _Drift(*TOLERANCES[file_name])
    if file_name.endswith(".json"):
        drift.tree("$", json.loads(want), json.loads(got))
    else:
        drift.text(want.decode(), got.decode())
    if drift.failure is not None:
        return False, f"DIFFERS beyond tolerance at {drift.failure}"
    return True, (f"bytes differ, within tolerance: max rel diff {drift.rel:.2e}, "
                  f"max abs diff {drift.abs:.2e}")


def check_case(name: str, tmp: Path) -> list[tuple[str, bool, str]]:
    """(file, within tolerance, report) for each file of one case."""
    got = run_case(name, tmp)
    return [(f, *compare(f, (GOLDEN / name / f).read_bytes(), data)) for f, data in got.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare outputs with the references")
    mode.add_argument("--write", nargs="*", choices=GROUPS, metavar="GROUP",
                      help=f"rewrite the references of these groups (default: all of {GROUPS})")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        if args.check:
            for name in CASES:
                for file_name, ok, report in check_case(name, Path(tmp)):
                    failed += not ok
                    print(f"{name}/{file_name}: {report}")
            print(f"{failed} file(s) beyond tolerance" if failed else "all files within tolerance")
            return 1 if failed else 0
        groups = args.write or GROUPS
        for name, (group, _, _) in CASES.items():
            if group in groups:
                shutil.rmtree(GOLDEN / name, ignore_errors=True)
                (GOLDEN / name).mkdir(parents=True)
                for file_name, data in run_case(name, Path(tmp)).items():
                    (GOLDEN / name / file_name).write_bytes(data)
                print(f"wrote {GOLDEN.relative_to(ROOT) / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
