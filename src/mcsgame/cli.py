"""Experiment runner.

Four subcommands: `static` solves one scenario's equilibrium, `train`
runs the PPO loop against it, `sweep` solves equilibria along one
parameter axis, `gradcheck` runs the finite-difference suite.  A run is
configured by an optional JSON file plus flag overrides; the resolved
configuration is echoed into manifest.json so every artifact can be
reproduced from the manifest alone.

Commands compute everything before writing anything, so a failed run
leaves no partial files.  Every CSV is a table of columns, {name: array
or list}: `static` and `sweep` take theirs from the experiments tables,
`train` builds its own from its records with `_columns`, and
`reporting.write_csv` writes them.  `_write_tables` checks each float
column once before the first file is made.  Exit codes: 0 success, 2
configuration error, 3 solver non-convergence, 4 numeric failure
(training diverged, a gradient check failed, a solve left the
floating-point range, or a table holds a non-finite cell).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .dynamics import MAX_COUNT, EnvConfig
from .experiments import (
    SWEEP_FIELDS,
    BaselineResult,
    ScenarioSpec,
    generate_scenario,
    play_greedy,
    play_random,
    run_sweep,
    summary_columns,
    user_columns,
)
from .gradcheck import run_all
from .leader import SolverConfig, compute_se
from .learner import TrainConfig, TrainingDiverged, save_policy, train
from .model import Scenario
from .reporting import table_columns, write_csv, write_json, write_manifest
from .svgplot import line_chart

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}")
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply")
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
    except RecursionError:
        raise ConfigError(f"--set {key}: JSON value nested too deeply")
    node = cfg
    *sections, last = key.split(".")
    for part in sections:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {key}: {part} is not a section")
    node[last] = value


def _is_int(v) -> bool:
    # JSON true and false arrive as bool, which Python counts as an int
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# what a JSON value must be to fill a config field, by the field's
# annotation, and how it is stored; a float field stores every number as
# a float, so the manifest echoes one config one way
_FIELD_VALUES = {
    "str": ("a string", lambda v: isinstance(v, str), str),
    "int": ("an integer", _is_int, int),
    "float": ("a number", _is_number, float),
    "tuple[int, ...]": (
        "a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)), tuple
    ),
    "tuple[float, float]": (
        "a list of two numbers",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
        lambda v: tuple(map(float, v)),
    ),
    "tuple[float, ...]": (
        "a list of numbers",
        lambda v: isinstance(v, list) and all(map(_is_number, v)),
        lambda v: tuple(map(float, v)),
    ),
}


@dataclass(frozen=True)
class SweepConfig:
    """The sweep command's axis and values; run_sweep checks both."""

    axis: str = ""
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    """Every value a run reads: seed and baseline_steps, checked before the sections are built."""

    seed: int = 0
    baseline_steps: int = 1000
    scenario: ScenarioSpec = ScenarioSpec()
    env: EnvConfig = EnvConfig()
    solver: SolverConfig = SolverConfig()
    train: TrainConfig = TrainConfig()
    sweep: SweepConfig = SweepConfig()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.baseline_steps <= MAX_COUNT:  # it sizes the baselines' step arrays
            raise ValueError(f"baseline_steps must lie in [1, {MAX_COUNT}]")


def _build_section(cls, data, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")
    kwargs = {}
    try:
        for name, v in data.items():
            if types[name] in _FIELD_VALUES:
                what, fits, store = _FIELD_VALUES[types[name]]
                if not fits(v):
                    raise ConfigError(f"{where}: {name} must be {what}, got {v!r}")
                kwargs[name] = store(v)
        built = cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as e:
        # OverflowError: an integer too large for a float field
        raise ConfigError(f"{where}: {e}")
    # the rest are sections, typed by their defaults and built after cls has checked its values
    parts = {n: _build_section(type(getattr(cls, n)), v, n)
             for n, v in data.items() if n not in kwargs}
    return replace(built, **parts) if parts else built


def _echo(config: RunConfig, command: str) -> dict:
    """The manifest's config: the whole tree, its sweep section only for `sweep`."""
    return {k: v for k, v in asdict(config).items() if k != "sweep" or command == "sweep"}


def _columns(records) -> dict:
    """A table with a column per dataclass field of the records, in field order."""
    return {f.name: [getattr(r, f.name) for r in records] for f in fields(records[0])}


def _write_tables(out_dir: str, tables: dict) -> list[str]:
    """Write each {file name: columns} table as a CSV; return the names.

    Every float column of every table is checked before out_dir is made,
    so a non-finite cell raises FloatingPointError and no file is written.
    """
    spread = {name: table_columns(columns) for name, columns in tables.items()}
    for name, columns in spread.items():
        for column, a in columns.items():
            if a.dtype.kind == "f" and not np.isfinite(a).all():
                raise FloatingPointError(f"{name}: a {column} cell is not finite")
    os.makedirs(out_dir, exist_ok=True)
    for name, columns in spread.items():
        write_csv(os.path.join(out_dir, name), columns)
    return list(tables)


def _per_mu(xs, ys) -> dict:
    """One chart series per user; ys holds a row per x and a column per user."""
    return {f"MU {i}": (xs, y.tolist()) for i, y in enumerate(np.asarray(ys).T, 1)}


def _draw(out_dir: str, x_label: str, charts) -> list[str]:
    """Draw (file, title, y label, series) chart specs; return the file names."""
    for name, title, y_label, series in charts:
        line_chart(os.path.join(out_dir, name), title, x_label, y_label, series)
    return [chart[0] for chart in charts]


# ---------------------------------------------------------------------------
# commands


def _scenario(config: RunConfig) -> Scenario:
    # the ranges can pass their checks and still all but never draw own_value > unit_cost
    try:
        return generate_scenario(config.scenario, config.seed)
    except ValueError as e:
        raise ConfigError(f"scenario: {e}")


def cmd_static(config: RunConfig, out_dir: str) -> int:
    scenario = _scenario(config)
    res = compute_se(scenario, config.solver)
    users = user_columns(scenario, res)
    del users["utility_scale"]  # summary.csv carries the market's one value
    summary = {"n_mus": [scenario.n], "utility_scale": [scenario.utility_scale],
               "seed": [config.seed], **summary_columns(res)}

    artifacts = _write_tables(out_dir, {"equilibrium.csv": users, "summary.csv": summary})
    write_manifest(out_dir, "static", _echo(config, "static"), artifacts)
    if not res.converged:
        print(f"solver did not converge (residual {res.grad_residual:.3e})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"static: SP payoff {res.sp_payoff:.6f}, wrote {out_dir}/equilibrium.csv")
    return EXIT_OK


class _StepTrace:
    """`train`'s step records as the steps.csv columns, one preallocated row block per episode."""

    def __init__(self, episodes: int, steps: int, n: int):
        rows, self.steps = episodes * steps, steps
        # int32 counts: a trace of 2**31 steps is past any memory that could hold its floats
        self.columns = {
            "episode": np.repeat(np.arange(1, episodes + 1, dtype=np.int32), steps),
            "step": np.tile(np.arange(1, steps + 1, dtype=np.int32), episodes),
            "p": np.empty((rows, n)), "x": np.empty((rows, n)), "sp_payoff": np.empty(rows),
            "reward": np.empty(rows), "mu_payoff": np.empty((rows, n)),
            "clamped_flag": np.empty(rows, dtype=bool),
        }
        self.recorded = list(self.columns.values())[2:]

    def record(self, ep: int, actions, prices, allocations, outcomes) -> None:
        values = (prices, allocations, outcomes.sp_payoff, outcomes.reward, outcomes.mu_payoffs,
                  (prices != actions).any(axis=1))  # clamped: executed differs from raw
        for column, v in zip(self.recorded, values):
            column[(ep - 1) * self.steps:ep * self.steps] = v


def cmd_train(config: RunConfig, out_dir: str, svg: bool, steps_trace: bool) -> int:
    scenario = _scenario(config)
    se = compute_se(scenario, config.solver)
    if steps_trace:
        steps = _StepTrace(config.train.episodes, config.train.steps_per_batch, scenario.n)

    try:
        policy, trace = train(
            scenario, config.env, config.train, on_episode=steps.record if steps_trace else None
        )
    except TrainingDiverged as e:
        os.makedirs(out_dir, exist_ok=True)
        snap_path = write_json(os.path.join(out_dir, "divergence_snapshot.json"), {
            "format": "mcsgame-divergence", "version": 2, "config": _echo(config, "train"),
            "episode": e.episode, "inner_epoch": e.inner_epoch, "parameters": e.parameters,
        })
        print(
            f"training diverged at episode {e.episode}, inner epoch {e.inner_epoch}; "
            f"snapshot written to {snap_path}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC

    greedy = play_greedy(scenario, config.env, config.baseline_steps)
    rand = play_random(scenario, config.env, config.baseline_steps, config.seed)
    static_se = BaselineResult("static_se", 0, se.sp_payoff,
                               config.env.reward_scale * se.sp_payoff, se.mu_payoffs)
    episodes = _columns(trace)
    tables = {"episodes.csv": episodes, "baselines.csv": _columns((greedy, rand, static_se))}
    if steps_trace:
        tables["steps.csv"] = steps.columns
    artifacts = _write_tables(out_dir, tables)
    save_policy(os.path.join(out_dir, "checkpoint.json"), policy, config.env, config.train)
    artifacts.append("checkpoint.json")
    if svg:
        xs = episodes["episode"]
        sp_payoffs = {"training": (xs, episodes["mean_sp_payoff"])}
        for label, baseline in (("static SE", static_se), ("greedy", greedy), ("random", rand)):
            sp_payoffs[label] = (xs, [baseline.mean_sp_payoff] * len(xs))
        artifacts += _draw(out_dir, "episode", [
            ("prices.svg", "Mean price per episode", "price", _per_mu(xs, episodes["mean_price"])),
            ("allocations.svg", "Mean allocation per episode", "allocation",
             _per_mu(xs, episodes["mean_allocation"])),
            ("sp_payoff.svg", "SP payoff per episode", "payoff", sp_payoffs),
            ("mu_payoffs.svg", "Mean MU payoff per episode", "payoff",
             _per_mu(xs, episodes["mean_mu_payoff"])),
        ])
    write_manifest(out_dir, "train", _echo(config, "train"), artifacts)

    last = trace[-min(50, len(trace)):]
    late_mean = sum(ep.mean_sp_payoff for ep in last) / len(last)
    print(
        f"train: late mean SP payoff {late_mean:.4f} "
        f"(static SE {se.sp_payoff:.4f}, greedy {greedy.mean_sp_payoff:.4f}, "
        f"random {rand.mean_sp_payoff:.4f}); wrote {out_dir}/episodes.csv"
    )
    return EXIT_OK


def cmd_sweep(config: RunConfig, out_dir: str, svg: bool) -> int:
    axis, values = config.sweep.axis, config.sweep.values
    try:
        users, summaries = run_sweep(config.scenario, axis, values, config.seed, config.solver)
    except ValueError as e:
        raise ConfigError(f"sweep: {e}")

    del users["region"]
    rows = len(users["mu_index"])
    mus = {"axis": [axis] * rows, "sweep_value": users[SWEEP_FIELDS[axis]], **users}

    artifacts = _write_tables(out_dir, {"sweep_mus.csv": mus, "sweep_summary.csv": summaries})
    if svg:
        prices, allocations = mus["p_star"], mus["x_star"]
        if axis in ("delta", "cost"):
            # one market with one user per value
            price, allocation, extra = {"p*": (values, prices)}, {"x*": (values, allocations)}, []
        else:
            # a market per value, its users in a row
            price, allocation = (_per_mu(values, np.reshape(ys, (len(values), -1)))
                                 for ys in (prices, allocations))
            payoffs = {"SP payoff": (values, summaries["sp_payoff"])}
            extra = [("sweep_payoff.svg", f"SP payoff vs {axis}", "payoff", payoffs)]
        artifacts += _draw(out_dir, axis, [
            ("sweep_price.svg", f"Equilibrium price vs {axis}", "price", price),
            ("sweep_allocation.svg", f"Equilibrium allocation vs {axis}", "allocation", allocation),
            *extra,
        ])
    write_manifest(out_dir, "sweep", _echo(config, "sweep"), artifacts)

    if not summaries["converged"].all():
        print("one or more sweep points did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"sweep: {rows} rows over axis {axis}; wrote {out_dir}/sweep_mus.csv")
    return EXIT_OK


def cmd_gradcheck(seed: int) -> int:
    results = run_all(seed)
    width = max(len(r.name) for r in results)
    print(f"{'check'.ljust(width)}  probes  max_rel_err   tol       status")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  {r.probes:6d}  {r.max_rel_err:.3e}  {r.tol:.1e}  {status}")
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"failing checks: {', '.join(failures)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp: argparse.ArgumentParser, with_out: bool, svg: bool = False) -> None:
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
    if svg:
        sp.add_argument("--svg", choices=("on", "off"), default="on", help="emit SVG charts")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcsgame", description="Crowdsensing pricing-game experiments."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("static", help="solve one scenario's equilibrium"), True)
    tp = sub.add_parser("train", help="train the pricing policy")
    _add_common(tp, True, svg=True)
    tp.add_argument(
        "--steps-trace", choices=("on", "off"), default="off", help="emit per-step trace CSV"
    )
    _add_common(sub.add_parser("sweep", help="solve equilibria along a parameter axis"), True,
                svg=True)
    _add_common(sub.add_parser("gradcheck", help="run the finite-difference suite"), False)

    args = parser.parse_args(argv)
    try:
        if args.command != "gradcheck":
            # an --out that cannot be made a directory fails before any work
            nearest = os.path.abspath(args.out)
            while not os.path.exists(nearest):
                nearest = os.path.dirname(nearest)
            if not os.path.isdir(nearest):
                raise ConfigError(f"--out {args.out}: {nearest} is not a directory")
        raw = _load_config_file(args.config) if args.config else {}
        for assignment in args.set:
            _apply_override(raw, assignment)
        if args.seed is not None:
            raw["seed"] = args.seed
        if isinstance(raw.setdefault("train", {}), dict):  # training seed defaults to the run's
            raw["train"].setdefault("seed", raw.get("seed", 0))
        config = _build_section(RunConfig, raw, "top level")
        if args.command == "static":
            return cmd_static(config, args.out)
        if args.command == "train":
            return cmd_train(config, args.out, args.svg == "on", args.steps_trace == "on")
        if args.command == "sweep":
            return cmd_sweep(config, args.out, args.svg == "on")
        return cmd_gradcheck(config.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("config error: the run needs more memory than it can get", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"config error: cannot write the output: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
