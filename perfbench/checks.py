"""Checks on every command's output, run outside the timed region.

Importing this module imports the mcsgame package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

import mcsgame.cli  # noqa: F401  (loads every module the commands use)
from mcsgame.leader import price_box, sp_payoff_gradient
from mcsgame.model import LinearDemand, MuProfile, Scenario, UniformDemand, sp_payoff
from workloads import STEPS_PER_BATCH, Op

_LAW_CLASSES = {"uniform": UniformDemand, "linear": LinearDemand}

# The default SolverConfig.tol: every market a command reports as solved
# must carry a KKT certificate this tight.
SOLVER_TOL = 1e-8


class CheckFailed(Exception):
    """A command exited 0 but its output is wrong."""


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_manifest(out_dir: str, command: str) -> dict:
    """The manifest names exactly the files written, with their real digests."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("command") != command:
        raise CheckFailed(f"manifest command {manifest.get('command')!r} != {command!r}")
    artifacts = manifest.get("artifacts", {})
    written = set(os.listdir(out_dir)) - {"manifest.json"}
    if written != set(artifacts):
        raise CheckFailed(f"manifest lists {sorted(artifacts)}, directory holds {sorted(written)}")
    for name, digest in artifacts.items():
        if _sha256(os.path.join(out_dir, name)) != digest:
            raise CheckFailed(f"sha256 of {name} does not match the manifest")
    return manifest


def kkt_residual(law: str, rows: list[dict], utility_scale: float) -> float:
    """max |p - clip(p + grad U(p), lo, hi)| for the market the CSV rows describe."""
    demand = _LAW_CLASSES[law]
    mus = tuple(
        MuProfile(float(r["capacity"]), float(r["own_value"]), float(r["unit_cost"]),
                  demand(float(r["demand_lo"]), float(r["demand_hi"])))
        for r in rows
    )
    scenario = Scenario(utility_scale, mus)
    p = np.array([float(r["p_star"]) for r in rows])
    lo, hi = price_box(scenario)
    grad = sp_payoff_gradient(scenario, p)
    return float(np.max(np.abs(p - np.clip(p + grad, lo, hi))))


def _certify(law: str, rows: list[dict], utility_scale: float) -> float:
    residual = kkt_residual(law, rows, utility_scale)
    if not residual <= SOLVER_TOL:
        raise CheckFailed(f"KKT residual {residual:.3e} above {SOLVER_TOL:g}")
    return residual


def check_static(op: Op, out_dir: str) -> dict:
    check_manifest(out_dir, "static")
    rows = _read_csv(os.path.join(out_dir, "equilibrium.csv"))
    (summary,) = _read_csv(os.path.join(out_dir, "summary.csv"))
    if len(rows) != op.expect["n_mus"]:
        raise CheckFailed(f"equilibrium.csv has {len(rows)} rows, expected {op.expect['n_mus']}")
    utility_scale = float(summary["utility_scale"])
    residual = _certify(op.law, rows, utility_scale)
    payoff = sp_payoff([float(r["x_star"]) for r in rows], [float(r["p_star"]) for r in rows],
                       utility_scale)
    reported = float(summary["sp_payoff"])
    if not abs(payoff - reported) <= 1e-9 * max(1.0, abs(payoff)):
        raise CheckFailed(f"sp_payoff {reported!r} in summary.csv, {payoff!r} recomputed")
    return {"kkt": residual}


def check_sweep(op: Op, out_dir: str) -> dict:
    check_manifest(out_dir, "sweep")
    rows = _read_csv(os.path.join(out_dir, "sweep_mus.csv"))
    if len(rows) != op.expect["rows"]:
        raise CheckFailed(f"sweep_mus.csv has {len(rows)} rows, expected {op.expect['rows']}")
    users = op.expect["users"]
    residual = 0.0
    # rows come one market after another, `users` rows per market
    for start in range(0, len(rows), users):
        market = rows[start:start + users]
        residual = max(residual, _certify(op.law, market, float(market[0]["utility_scale"])))
    return {"kkt": residual}


def check_train(op: Op, out_dir: str) -> dict:
    manifest = check_manifest(out_dir, "train")
    steps = manifest["config"]["train"]["steps_per_batch"]
    if steps != STEPS_PER_BATCH:
        raise CheckFailed(f"steps_per_batch {steps} != {STEPS_PER_BATCH}")
    episodes = _read_csv(os.path.join(out_dir, "episodes.csv"))
    if len(episodes) != op.expect["episodes"]:
        raise CheckFailed(f"episodes.csv has {len(episodes)} rows, expected {op.expect['episodes']}")
    # the late mean the CLI prints: the last (up to) 50 episodes
    late = episodes[-min(50, len(episodes)):]
    late_mean = sum(float(r["mean_sp_payoff"]) for r in late) / len(late)
    (static_se,) = [r for r in _read_csv(os.path.join(out_dir, "baselines.csv"))
                    if r["name"] == "static_se"]
    return {"payoff_ratio": late_mean / float(static_se["mean_sp_payoff"])}


CHECKS = {"static": check_static, "sweep": check_sweep, "train": check_train}
