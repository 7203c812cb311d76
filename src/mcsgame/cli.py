"""Experiment runner.

Four subcommands: `static` solves one scenario's equilibrium, `train`
runs the PPO loop against it, `sweep` solves equilibria along one
parameter axis, `gradcheck` runs the finite-difference suite.  A run is
configured by an optional JSON file plus flag overrides; the resolved
configuration is echoed into manifest.json so every artifact can be
reproduced from the manifest alone.

Commands compute everything before writing anything, so a failed run
leaves no partial files.  Exit codes: 0 success, 2 configuration
error, 3 solver non-convergence, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .dynamics import EnvConfig, step_trace_columns
from .follower import best_response, price_threshold
from .experiments import (
    SWEEP_AXES,
    ScenarioSpec,
    generate_scenario,
    play_greedy,
    play_random,
    run_sweep,
)
from .gradcheck import run_all
from .leader import SolverConfig, compute_se
from .learner import TrainConfig, TrainingDiverged, save_policy, train
from .reporting import write_csv, write_manifest
from .svgplot import line_chart

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


_SECTIONS = {
    "scenario": ScenarioSpec,
    "env": EnvConfig,
    "solver": SolverConfig,
    "train": TrainConfig,
}
_TOP_KEYS = set(_SECTIONS) | {"seed", "baseline_steps", "sweep"}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def _apply_override(cfg: dict, assignment: str) -> None:
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"--set {key}: {part} is not a section")
        node = nxt
    node[parts[-1]] = value


def _build_section(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")
    kwargs = {}
    for name in names:
        if name in data:
            v = data[name]
            kwargs[name] = tuple(v) if isinstance(v, list) else v
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}")


class RunSetup:
    """Fully resolved configuration for one command invocation."""

    def __init__(self, raw: dict, seed_flag: int | None):
        unknown = sorted(set(raw) - _TOP_KEYS)
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
        self.seed = seed_flag if seed_flag is not None else raw.get("seed", 0)
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        self.baseline_steps = raw.get("baseline_steps", 1000)
        if not isinstance(self.baseline_steps, int) or self.baseline_steps < 1:
            raise ConfigError("baseline_steps must be a positive integer")
        self.spec = _build_section(ScenarioSpec, raw.get("scenario", {}), "scenario")
        self.env = _build_section(EnvConfig, raw.get("env", {}), "env")
        self.solver = _build_section(SolverConfig, raw.get("solver", {}), "solver")
        tr = dict(raw.get("train", {}))
        tr.setdefault("seed", self.seed)
        self.train_config = _build_section(TrainConfig, tr, "train")
        self.sweep = raw.get("sweep", None)

    def sweep_axis_values(self) -> tuple[str, list[float]]:
        if not isinstance(self.sweep, dict):
            raise ConfigError("sweep command needs a 'sweep' config section")
        unknown = sorted(set(self.sweep) - {"axis", "values"})
        if unknown:
            raise ConfigError(f"sweep: unknown field(s) {', '.join(unknown)}")
        axis = self.sweep.get("axis")
        values = self.sweep.get("values")
        if axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis must be one of {SWEEP_AXES}, got {axis!r}")
        if not isinstance(values, list) or len(values) < 2:
            raise ConfigError("sweep.values must be a list of at least two numbers")
        try:
            return axis, [float(v) for v in values]
        except (TypeError, ValueError):
            raise ConfigError("sweep.values must be numeric")

    def echo(self, command: str) -> dict:
        cfg = {
            "seed": self.seed,
            "baseline_steps": self.baseline_steps,
            "scenario": asdict(self.spec),
            "env": asdict(self.env),
            "solver": asdict(self.solver),
            "train": asdict(self.train_config),
        }
        cfg["scenario"]["unit_cost_range"] = list(self.spec.unit_cost_range)
        cfg["scenario"]["own_value_range"] = list(self.spec.own_value_range)
        cfg["train"]["hidden"] = list(self.train_config.hidden)
        if command == "sweep":
            axis, values = self.sweep_axis_values()
            cfg["sweep"] = {"axis": axis, "values": values}
        return cfg


def _mu_columns(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i+1}" for i in range(n)]


# ---------------------------------------------------------------------------
# commands


def cmd_static(setup: RunSetup, out_dir: str) -> int:
    scenario = generate_scenario(setup.spec, setup.seed)
    res = compute_se(scenario, setup.solver)

    eq_rows = []
    for i, mu in enumerate(scenario.mus):
        p_i = float(res.prices.values[i])
        eq_rows.append(
            [
                i + 1,
                mu.own_value,
                mu.unit_cost,
                mu.capacity,
                mu.demand.lo,
                mu.demand.hi,
                price_threshold(mu),
                p_i,
                float(res.allocations.values[i]),
                best_response(mu, p_i).region.name.lower(),
                float(res.mu_payoffs[i]),
            ]
        )
    summary_row = [
        scenario.n,
        scenario.utility_scale,
        setup.seed,
        res.sp_payoff,
        float(np.sum(res.allocations.values)),
        res.iterations,
        res.grad_residual,
        res.converged,
    ]

    os.makedirs(out_dir, exist_ok=True)
    write_csv(
        os.path.join(out_dir, "equilibrium.csv"),
        [
            "mu_index",
            "own_value",
            "unit_cost",
            "capacity",
            "demand_lo",
            "demand_hi",
            "price_threshold",
            "p_star",
            "x_star",
            "region",
            "mu_payoff",
        ],
        eq_rows,
    )
    write_csv(
        os.path.join(out_dir, "summary.csv"),
        [
            "n_mus",
            "utility_scale",
            "seed",
            "sp_payoff",
            "total_allocation",
            "iterations",
            "grad_residual",
            "converged",
        ],
        [summary_row],
    )
    write_manifest(out_dir, "static", setup.echo("static"), ["equilibrium.csv", "summary.csv"])
    if not res.converged:
        print(f"solver did not converge (residual {res.grad_residual:.3e})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"static: SP payoff {res.sp_payoff:.6f}, wrote {out_dir}/equilibrium.csv")
    return EXIT_OK


def cmd_train(setup: RunSetup, out_dir: str, svg: bool, steps_trace: bool) -> int:
    scenario = generate_scenario(setup.spec, setup.seed)
    se = compute_se(scenario, setup.solver)
    n = scenario.n

    step_rows: list[list] = []

    def record(ep: int, k: int, tr) -> None:
        step_rows.append(
            [ep, k]
            + [float(v) for v in tr.action.values]
            + [float(v) for v in tr.next_state.allocations[-1]]
            + [tr.sp_payoff, tr.reward]
            + [float(v) for v in tr.mu_payoffs]
            + [tr.clamped]
        )

    try:
        policy, trace = train(
            scenario, setup.env, setup.train_config, on_step=record if steps_trace else None
        )
    except TrainingDiverged as e:
        os.makedirs(out_dir, exist_ok=True)
        snap_path = os.path.join(out_dir, "divergence_snapshot.json")
        snap = {
            "format": "mcsgame-divergence",
            "version": 1,
            "episode": e.episode,
            "inner_epoch": e.inner_epoch,
            "config": setup.echo("train"),
            "parameters": e.snapshot,
        }
        with open(snap_path, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(
            f"training diverged at episode {e.episode}, inner epoch {e.inner_epoch}; "
            f"snapshot written to {snap_path}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC

    greedy = play_greedy(scenario, setup.env, setup.baseline_steps, setup.seed)
    rand = play_random(scenario, setup.env, setup.baseline_steps, setup.seed)

    episode_header = (
        ["episode", "mean_reward", "mean_sp_payoff", "actor_objective", "critic_loss"]
        + _mu_columns("mean_price", n)
        + _mu_columns("mean_allocation", n)
        + _mu_columns("mean_mu_payoff", n)
    )
    episode_rows = [
        [ep.episode, ep.mean_reward, ep.mean_sp_payoff, ep.actor_objective, ep.critic_loss]
        + [float(v) for v in ep.mean_prices]
        + [float(v) for v in ep.mean_allocations]
        + [float(v) for v in ep.mean_mu_payoffs]
        for ep in trace
    ]

    baseline_header = ["name", "steps", "mean_sp_payoff", "mean_reward"] + _mu_columns(
        "mean_mu_payoff", n
    )
    baseline_rows = [
        ["greedy", greedy.steps, greedy.mean_sp_payoff, greedy.mean_reward]
        + [float(v) for v in greedy.mean_mu_payoffs],
        ["random", rand.steps, rand.mean_sp_payoff, rand.mean_reward]
        + [float(v) for v in rand.mean_mu_payoffs],
        ["static_se", 0, se.sp_payoff, setup.env.reward_scale * se.sp_payoff]
        + [float(v) for v in se.mu_payoffs],
    ]

    os.makedirs(out_dir, exist_ok=True)
    artifacts = ["episodes.csv", "baselines.csv", "checkpoint.json"]
    write_csv(os.path.join(out_dir, "episodes.csv"), episode_header, episode_rows)
    write_csv(os.path.join(out_dir, "baselines.csv"), baseline_header, baseline_rows)
    save_policy(os.path.join(out_dir, "checkpoint.json"), policy, setup.env, setup.train_config)
    if steps_trace:
        write_csv(os.path.join(out_dir, "steps.csv"), step_trace_columns(n), step_rows)
        artifacts.append("steps.csv")
    if svg:
        episodes = [ep.episode for ep in trace]
        line_chart(
            os.path.join(out_dir, "prices.svg"),
            "Mean price per episode",
            "episode",
            "price",
            {f"MU {i+1}": (episodes, [float(ep.mean_prices[i]) for ep in trace]) for i in range(n)},
        )
        line_chart(
            os.path.join(out_dir, "allocations.svg"),
            "Mean allocation per episode",
            "episode",
            "allocation",
            {
                f"MU {i+1}": (episodes, [float(ep.mean_allocations[i]) for ep in trace])
                for i in range(n)
            },
        )
        flat = [se.sp_payoff] * len(episodes)
        line_chart(
            os.path.join(out_dir, "sp_payoff.svg"),
            "SP payoff per episode",
            "episode",
            "payoff",
            {
                "training": (episodes, [ep.mean_sp_payoff for ep in trace]),
                "static SE": (episodes, flat),
                "greedy": (episodes, [greedy.mean_sp_payoff] * len(episodes)),
                "random": (episodes, [rand.mean_sp_payoff] * len(episodes)),
            },
        )
        line_chart(
            os.path.join(out_dir, "mu_payoffs.svg"),
            "Mean MU payoff per episode",
            "episode",
            "payoff",
            {
                f"MU {i+1}": (episodes, [float(ep.mean_mu_payoffs[i]) for ep in trace])
                for i in range(n)
            },
        )
        artifacts += ["prices.svg", "allocations.svg", "sp_payoff.svg", "mu_payoffs.svg"]
    write_manifest(out_dir, "train", setup.echo("train"), artifacts)

    last = trace[-min(50, len(trace)):]
    late_mean = sum(ep.mean_sp_payoff for ep in last) / len(last)
    print(
        f"train: late mean SP payoff {late_mean:.4f} "
        f"(static SE {se.sp_payoff:.4f}, greedy {greedy.mean_sp_payoff:.4f}, "
        f"random {rand.mean_sp_payoff:.4f}); wrote {out_dir}/episodes.csv"
    )
    return EXIT_OK


def cmd_sweep(setup: RunSetup, out_dir: str, svg: bool) -> int:
    axis, values = setup.sweep_axis_values()
    try:
        result = run_sweep(setup.spec, axis, values, setup.seed, setup.solver)
    except ValueError as e:
        raise ConfigError(str(e))

    mu_header = [
        "axis",
        "sweep_value",
        "mu_index",
        "own_value",
        "unit_cost",
        "capacity",
        "demand_lo",
        "demand_hi",
        "utility_scale",
        "price_threshold",
        "p_star",
        "x_star",
        "mu_payoff",
    ]
    mu_rows = [
        [
            axis,
            pt.sweep_value,
            pt.mu_index + 1,
            pt.own_value,
            pt.unit_cost,
            pt.capacity,
            pt.demand_lo,
            pt.demand_hi,
            pt.utility_scale,
            pt.price_threshold,
            pt.p_star,
            pt.x_star,
            pt.mu_payoff,
        ]
        for pt in result.points
    ]
    summary_header = [
        "label",
        "sp_payoff",
        "total_allocation",
        "iterations",
        "grad_residual",
        "converged",
    ]
    summary_rows = [
        [s.label, s.sp_payoff, s.total_allocation, s.iterations, s.grad_residual, s.converged]
        for s in result.summaries
    ]

    os.makedirs(out_dir, exist_ok=True)
    artifacts = ["sweep_mus.csv", "sweep_summary.csv"]
    write_csv(os.path.join(out_dir, "sweep_mus.csv"), mu_header, mu_rows)
    write_csv(os.path.join(out_dir, "sweep_summary.csv"), summary_header, summary_rows)
    if svg:
        if axis in ("delta", "cost"):
            xs = [pt.sweep_value for pt in result.points]
            line_chart(
                os.path.join(out_dir, "sweep_price.svg"),
                f"Equilibrium price vs {axis}",
                axis,
                "price",
                {"p*": (xs, [pt.p_star for pt in result.points])},
            )
            line_chart(
                os.path.join(out_dir, "sweep_allocation.svg"),
                f"Equilibrium allocation vs {axis}",
                axis,
                "allocation",
                {"x*": (xs, [pt.x_star for pt in result.points])},
            )
            artifacts += ["sweep_price.svg", "sweep_allocation.svg"]
        else:
            n = setup.spec.n_mus

            def by_mu(get):
                return {
                    f"MU {i+1}": (values, [get(pt) for pt in result.points if pt.mu_index == i])
                    for i in range(n)
                }

            line_chart(
                os.path.join(out_dir, "sweep_price.svg"),
                f"Equilibrium price vs {axis}",
                axis,
                "price",
                by_mu(lambda pt: pt.p_star),
            )
            line_chart(
                os.path.join(out_dir, "sweep_allocation.svg"),
                f"Equilibrium allocation vs {axis}",
                axis,
                "allocation",
                by_mu(lambda pt: pt.x_star),
            )
            line_chart(
                os.path.join(out_dir, "sweep_payoff.svg"),
                f"SP payoff vs {axis}",
                axis,
                "payoff",
                {"SP payoff": (values, [s.sp_payoff for s in result.summaries])},
            )
            artifacts += ["sweep_price.svg", "sweep_allocation.svg", "sweep_payoff.svg"]
    write_manifest(out_dir, "sweep", setup.echo("sweep"), artifacts)

    if not result.converged:
        print("one or more sweep points did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"sweep: {len(result.points)} rows over axis {axis}; wrote {out_dir}/sweep_mus.csv")
    return EXIT_OK


def cmd_gradcheck(seed: int) -> int:
    results = run_all(seed)
    width = max(len(r.name) for r in results)
    print(f"{'check'.ljust(width)}  probes  max_rel_err   tol       status")
    failures = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  {r.probes:6d}  {r.max_rel_err:.3e}  {r.tol:.1e}  {status}")
        if not r.passed:
            failures.append(r.name)
    if failures:
        print(f"failing checks: {', '.join(failures)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp: argparse.ArgumentParser, with_out: bool) -> None:
    sp.add_argument("--config", metavar="PATH", help="JSON configuration file")
    sp.add_argument("--seed", type=int, help="override the top-level seed")
    sp.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (dotted path, JSON value)",
    )
    if with_out:
        sp.add_argument("--out", metavar="DIR", required=True, help="output directory")
        sp.add_argument("--svg", choices=("on", "off"), default="on", help="emit SVG charts")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcsgame", description="Crowdsensing pricing-game experiments."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("static", help="solve one scenario's equilibrium"), True)
    tp = sub.add_parser("train", help="train the pricing policy")
    _add_common(tp, True)
    tp.add_argument(
        "--steps-trace", choices=("on", "off"), default="off", help="emit per-step trace CSV"
    )
    _add_common(sub.add_parser("sweep", help="solve equilibria along a parameter axis"), True)
    _add_common(sub.add_parser("gradcheck", help="run the finite-difference suite"), False)

    args = parser.parse_args(argv)
    try:
        raw = _load_config_file(args.config) if args.config else {}
        for assignment in args.set:
            _apply_override(raw, assignment)
        setup = RunSetup(raw, args.seed)
        if args.command == "static":
            return cmd_static(setup, args.out)
        if args.command == "train":
            return cmd_train(setup, args.out, args.svg == "on", args.steps_trace == "on")
        if args.command == "sweep":
            return cmd_sweep(setup, args.out, args.svg == "on")
        return cmd_gradcheck(setup.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
