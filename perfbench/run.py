#!/usr/bin/env python3
"""Benchmark of the mcsgame command line.

    python3 perfbench/run.py --workload static-large --seed 7 --seconds 30 --trace 0

Runs one workload in this single-threaded process, driving the CLI
in-process through ``mcsgame.cli.main`` as a closed loop: the next command
starts when the previous one returns.  Every command's output is checked
outside the timed region.  ``--trace 0`` measures for ``--seconds`` seconds
of command time and reports the end-to-end metrics; ``--trace 1`` replays a
fixed, seed-determined list of commands untraced, then traced, and reports
per-layer metrics and the tracing overhead.  ``--smoke`` runs one short
command instead.  The last line of standard output is the result object;
the line before it records the environment and the raw statistics.

The program is imported from ``src/`` next to this directory; nothing is
built or installed.
"""

from __future__ import annotations

import os

# one BLAS thread; must be set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 4  # fresh processes timed besides this one; setup_s is the median
REPEAT_SHARE = 8  # the repeat traced pass replays 1/8 of the traced commands

clock = time.perf_counter


class CommandTimeout(BaseException):
    """Raised into a command that ran past its workload's limit."""


class NoPassingCommand(Exception):
    """No operation of a run passed, so no operation time was measured."""


class _Alarm:
    armed = False

    @classmethod
    def handler(cls, signum, frame):
        if cls.armed:
            cls.armed = False
            raise CommandTimeout()


@dataclass
class Sample:
    """One command: its wall time and whether it passed."""

    seconds: float
    units: int
    reason: str | None = None  # why it failed; None when it passed
    timed_out: bool = False
    checked: bool = False
    check_failed: bool = False
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.reason is None


def run_op(op, work_dir: Path, index: int, limit_s: float, tracer=None) -> Sample:
    """Run one command, time it, then check its output outside the timed region."""
    import mcsgame.cli

    from checks import CHECKS

    out_dir = work_dir / f"op{index}"
    argv = op.argv(str(out_dir))
    sink = io.StringIO()
    rc = None
    reason = None
    timed_out = False
    if tracer is not None:
        tracer.install()
    start = clock()
    try:
        _Alarm.armed = True
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = mcsgame.cli.main(argv)
    except CommandTimeout:
        reason, timed_out = f"over the {limit_s:g} s limit", True
    except Exception as e:  # a traceback from the program is a failed operation
        reason = f"raised {type(e).__name__}: {e}"
    finally:
        _Alarm.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = clock() - start
        if tracer is not None:
            tracer.uninstall()

    sample = Sample(seconds, op.units, reason, timed_out)
    if reason is None and rc != 0:
        sample.reason = f"exit {rc}"
    if sample.reason is None:
        sample.checked = True
        try:
            sample.info = CHECKS[op.command](op, str(out_dir))
        except Exception as e:  # CheckFailed, or output too broken to parse
            sample.reason = f"check failed: {type(e).__name__}: {e}"
            sample.check_failed = True
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def operation_times(samples: list[Sample], group: int) -> list[float]:
    """Wall time per unit of work of each block of `group` consecutive commands.

    A block counts only when all its commands passed: a failed command
    solved nothing to time.
    """
    times = []
    for k in range(0, len(samples) - group + 1, group):
        block = samples[k:k + group]
        if all(s.ok for s in block):
            times.append(sum(s.seconds for s in block) / sum(s.units for s in block))
    return times


def setup(workload, seed: int, work_dir: Path) -> float:
    """Import mcsgame, build the workload's commands, run one warm-up command."""
    start = clock()
    import checks  # noqa: F401  (imports mcsgame)

    warmup = next(workload.ops(seed, small=True))
    sample = run_op(warmup, work_dir, 0, workload.limit_s)
    elapsed = clock() - start
    if not sample.ok:
        print(f"perfbench: warm-up command failed: {sample.reason}", file=sys.stderr)
    return elapsed


def probe_setup(args) -> list[float]:
    """setup() in fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
    }


def failure_summary(samples: list[Sample]) -> dict:
    reasons: dict[str, int] = {}
    for s in samples:
        if not s.ok:
            reasons[s.reason[:160]] = reasons.get(s.reason[:160], 0) + 1
    return reasons


def end_to_end(args, workload, work_dir: Path) -> tuple[dict, dict, list[Sample]]:
    setup_times = [] if args.smoke else probe_setup(args)
    setup_times.append(setup(workload, args.seed, work_dir))

    samples: list[Sample] = []
    spent = 0.0
    ops = workload.ops(args.seed, small=args.smoke)
    for i, op in enumerate(ops, start=1):
        sample = run_op(op, work_dir, i, workload.limit_s)
        samples.append(sample)
        spent += sample.seconds
        if args.smoke or (spent >= args.seconds and i % workload.group == 0):
            break

    # A failed command counts in ok_rate and its time in command_s_total,
    # but not in the operation times.
    passed = [s for s in samples if s.ok]
    op_times = operation_times(samples, 1 if args.smoke else workload.group)
    if not op_times:
        raise NoPassingCommand(failure_summary(samples))
    op_s = {f"p{q}": percentile(op_times, q) for q in (10, 50, 90, 95)}
    setup_s = statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (op_s["p50"], "s"),
        "ok_rate": (len(passed) / len(samples), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    kkt = [s.info["kkt"] for s in passed if "kkt" in s.info]
    ratios = [s.info["payoff_ratio"] for s in passed if "payoff_ratio" in s.info]
    detail = {
        "op_s": {"name": workload.op_name, "samples": len(op_times), **op_s},
        "kkt_residual.max": max(kkt) if kkt else None,
        "payoff_ratio.p50": statistics.median(ratios) if ratios else None,
        "setup_s_samples": setup_times,
        "commands": len(samples),
        "command_s_total": spent,
        "failures": failure_summary(samples),
        "checks_run": sum(s.checked for s in samples),
    }
    return metrics, detail, samples


def per_layer(args, workload, work_dir: Path) -> tuple[dict, dict, list[Sample]]:
    from tracing import Tracer

    setup(workload, args.seed, work_dir)
    count = 1 if args.smoke else max(2, round(args.seconds * workload.trace_ops_per_s))
    ops = list(itertools.islice(workload.ops(args.seed, small=args.smoke), count))
    traced_limit = 4.0 * workload.limit_s

    # Each command runs untraced, then traced, back to back, so the pair
    # sees the same machine state and their difference is the overhead.
    tracer = Tracer()
    plain: list[Sample] = []
    traced: list[Sample] = []
    replayed = []  # (op, its untraced sample, its call counts)
    for i, op in enumerate(ops, start=1):
        untraced = run_op(op, work_dir, i, workload.limit_s)
        plain.append(untraced)
        # a command cut off by the time limit stops at a clock-dependent
        # point, so its counts would not repeat; it is not traced
        if untraced.timed_out:
            continue
        before = tracer.call_counts()
        traced.append(run_op(op, work_dir, i, traced_limit, tracer))
        after = tracer.call_counts()
        replayed.append((op, untraced, {k: v - before.get(k, 0) for k, v in after.items()
                                        if v != before.get(k, 0)}))

    # Rerun a share of the traced commands: their counts must repeat exactly.
    tot, stats = tracer.totals(), tracer.stats
    repeated: list[Sample] = []
    mismatches = []
    for i, (op, _, counts) in enumerate(replayed[:max(1, len(replayed) // REPEAT_SHARE)]):
        tracer.stats = {}
        repeated.append(run_op(op, work_dir, i, traced_limit, tracer))
        if tracer.call_counts() != counts:
            mismatches.append(" ".join(op.args))
    tracer.stats = stats
    if mismatches:
        print(f"perfbench: traced call counts differ on a rerun of: {mismatches}", file=sys.stderr)

    def get(name: str, key: str = "calls"):
        return tot.get(name, {}).get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    users = get("leader.compute_se", "users")
    episodes = get("learner.train", "episodes")
    untraced_s = sum(p.seconds for _, p, _ in replayed)
    traced_s = sum(s.seconds for s in traced)
    kkt = [s.info["kkt"] for s in traced if "kkt" in s.info]
    ratios = [s.info["payoff_ratio"] for s in traced if "payoff_ratio" in s.info]
    metrics = {
        "follower.best_response.calls": (get("follower.best_response"), "count"),
        "follower.best_response.self_s": (get("follower.best_response", "self_s"), "s"),
        "follower.best_response.calls_per_user": (
            per(tracer.calls_from("leader.compute_se", "follower.best_response"), users), "count"),
        "leader.compute_se.calls": (get("leader.compute_se"), "count"),
        "leader.compute_se.self_s": (get("leader.compute_se", "self_s"), "s"),
        "leader.iterations.mean": (
            per(get("leader.compute_se", "iterations"), get("leader.compute_se")), "count"),
        "leader.kkt_residual.max": (max(kkt) if kkt else 0.0, "price"),
        "model.mu_payoff.calls": (get("model.mu_payoff"), "count"),
        "model.mu_payoff.self_s": (get("model.mu_payoff", "self_s"), "s"),
        "model.mu_own_profit.calls": (get("model.mu_own_profit"), "count"),
        "model.mu_own_profit.self_s": (get("model.mu_own_profit", "self_s"), "s"),
        "dynamics.env_step.calls": (get("dynamics.env_step"), "count"),
        "dynamics.env_step.self_s": (get("dynamics.env_step", "self_s"), "s"),
        "dynamics.env_step.calls_per_episode": (
            per(tracer.calls_from("learner.train", "dynamics.env_step"), episodes), "count"),
        "dynamics.respond.calls": (get("dynamics.respond"), "count"),
        "dynamics.env_reset.calls": (get("dynamics.env_reset"), "count"),
        "learner.train.self_s": (get("learner.train", "self_s"), "s"),
        "learner.policy_sample.calls": (get("learner.policy_sample"), "count"),
        "learner.policy_sample.self_s": (get("learner.policy_sample", "self_s"), "s"),
        "learner.mlp_forward.calls": (get("learner.mlp_forward"), "count"),
        "learner.mlp_forward.self_s": (get("learner.mlp_forward", "self_s"), "s"),
        "learner.mlp_forward.calls_per_episode": (per(get("learner.mlp_forward"), episodes), "count"),
        "learner.mlp_backward.calls": (get("learner.mlp_backward"), "count"),
        "learner.mlp_backward.self_s": (get("learner.mlp_backward", "self_s"), "s"),
        "learner.mlp_backward.calls_per_episode": (per(get("learner.mlp_backward"), episodes), "count"),
        "learner.ppo_actor_gradient.self_s": (get("learner.ppo_actor_gradient", "self_s"), "s"),
        "learner.critic_loss_and_gradient.self_s": (
            get("learner.critic_loss_and_gradient", "self_s"), "s"),
        "learner.ppo_surrogate.self_s": (get("learner.ppo_surrogate", "self_s"), "s"),
        "learner.TrajectoryBuffer.stacked.calls": (get("learner.TrajectoryBuffer.stacked"), "count"),
        "learner.TrajectoryBuffer.stacked.calls_per_episode": (
            per(get("learner.TrajectoryBuffer.stacked"), episodes), "count"),
        "learner.payoff_ratio": (statistics.median(ratios) if ratios else 0.0, "ratio"),
        "experiments.generate_scenario.self_s": (get("experiments.generate_scenario", "self_s"), "s"),
        "experiments.run_sweep.self_s": (get("experiments.run_sweep", "self_s"), "s"),
        "experiments.play_greedy.self_s": (get("experiments.play_greedy", "self_s"), "s"),
        "experiments.play_random.self_s": (get("experiments.play_random", "self_s"), "s"),
        "reporting.write_csv.calls": (get("reporting.write_csv"), "count"),
        "reporting.write_csv.self_s": (get("reporting.write_csv", "self_s"), "s"),
        "reporting.write_csv.bytes": (get("reporting.write_csv", "bytes"), "B"),
        "reporting.write_manifest.self_s": (get("reporting.write_manifest", "self_s"), "s"),
        "svgplot.line_chart.calls": (get("svgplot.line_chart"), "count"),
        "svgplot.line_chart.self_s": (get("svgplot.line_chart", "self_s"), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": (per(traced_s - untraced_s, untraced_s), "ratio"),
    }
    detail = {
        "commands": len(ops),
        "traced": len(traced),
        "repeated": len(repeated),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "counts_repeat": not mismatches,
        "missing_targets": tracer.missing,
        "failures": failure_summary(plain + traced + repeated),
        "checks_run": sum(s.checked for s in plain + traced + repeated),
        "spans": dict(sorted(tot.items())),
    }
    return metrics, detail, plain + traced + repeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short command; no timing claims")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mcsgame" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'mcsgame'} not found; run from a full source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DEV_SEED, HELDOUT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _Alarm.handler)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(workload, args.seed, work_dir)}))
            return 0
        measure = per_layer if args.trace else end_to_end
        metrics, detail, samples = measure(args, workload, work_dir)
    except NoPassingCommand as e:
        print(f"perfbench: no command passed, nothing to time; failures: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    detail["environment"] = environment(args)
    detail["dev_seed"] = DEV_SEED
    detail["heldout_seed"] = HELDOUT_SEED
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    result = {
        "correct": detail.get("counts_repeat", True) and not any(s.check_failed for s in samples),
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
