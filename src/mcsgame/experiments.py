"""Scenario generation, baseline play, and comparative-statics sweeps.

Sweeps exist to make trend claims testable.  For per-user parameters
(own_value, unit_cost) one scenario is built whose users are identical
except for the swept value, so the cross-user trend is read off a
single equilibrium.  For scenario-level parameters (demand_upper,
utility_scale) the same user population is re-solved once per swept
value, all else held fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (MAX_COUNT, EnvConfig, Outcomes, env_reset, env_step, episode_outcomes,
                       step_mean)
from .leader import EquilibriumResult, SolverConfig, compute_se, price_box
from .model import DemandDistribution, LinearDemand, MuProfile, Scenario, UniformDemand

__all__ = [
    "ScenarioSpec",
    "generate_scenario",
    "BaselineResult",
    "play_constant",
    "play_greedy",
    "play_random",
    "user_columns",
    "summary_columns",
    "SWEEP_AXES",
    "SWEEP_FIELDS",
    "run_sweep",
]

_DEMAND_KINDS = {"uniform": UniformDemand, "linear": LinearDemand}


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for drawing a random scenario.

    unit_cost_range and own_value_range are closed intervals sampled
    uniformly; draws are rejected until own_value > unit_cost, so the
    two ranges must overlap in a way that leaves that event possible.
    Degenerate ranges (lo == hi) pin the parameter.
    """

    n_mus: int = 5
    capacity: float = 20.0
    demand_kind: str = "uniform"
    demand_lo: float = 0.0
    demand_hi: float = 25.0
    unit_cost_range: tuple[float, float] = (0.0, 1.0)
    own_value_range: tuple[float, float] = (0.0, 1.0)
    utility_scale: float = 50.0

    def __post_init__(self):
        if not 1 <= self.n_mus <= MAX_COUNT:
            raise ValueError(f"n_mus must lie in [1, {MAX_COUNT}]")
        if not (math.isfinite(self.capacity) and self.capacity > 0.0):
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if not (math.isfinite(self.utility_scale) and self.utility_scale > 0.0):
            raise ValueError(f"utility_scale must be positive, got {self.utility_scale}")
        if self.demand_kind not in _DEMAND_KINDS:
            raise ValueError(f"unknown demand kind {self.demand_kind!r}")
        # support bounds the law rejects fail here, while the config is read
        self.demand()
        for name, (lo, hi) in (
            ("unit_cost_range", self.unit_cost_range),
            ("own_value_range", self.own_value_range),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi")
        if self.own_value_range[1] <= self.unit_cost_range[0]:
            raise ValueError("own_value_range never exceeds unit_cost_range; no valid draw")

    def demand(self) -> DemandDistribution:
        return _DEMAND_KINDS[self.demand_kind](self.demand_lo, self.demand_hi)


def _draw_mu(spec: ScenarioSpec, rng: np.random.Generator) -> MuProfile:
    c_lo, c_hi = spec.unit_cost_range
    v_lo, v_hi = spec.own_value_range
    for _ in range(10000):
        cost = rng.uniform(c_lo, c_hi) if c_hi > c_lo else c_lo
        value = rng.uniform(v_lo, v_hi) if v_hi > v_lo else v_lo
        if value > cost:
            return MuProfile(spec.capacity, value, cost, spec.demand())
    raise ValueError("could not draw own_value > unit_cost from the given ranges")


def generate_scenario(spec: ScenarioSpec, seed: int) -> Scenario:
    """Draw user economics from the configured ranges, deterministically in seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mus = tuple(_draw_mu(spec, rng) for _ in range(spec.n_mus))
    return Scenario(utility_scale=spec.utility_scale, mus=mus)


# ---------------------------------------------------------------------------
# baseline policies


@dataclass(frozen=True)
class BaselineResult:
    """Average outcomes of a fixed policy over a number of steps."""

    name: str
    steps: int
    mean_sp_payoff: float
    mean_reward: float
    mean_mu_payoff: np.ndarray


def _baseline(name: str, steps: int, outcomes: Outcomes) -> BaselineResult:
    return BaselineResult(name, steps, float(step_mean(outcomes.sp_payoff)),
                          float(step_mean(outcomes.reward)), step_mean(outcomes.mu_payoffs))


def play_constant(
    scenario: Scenario, env_config: EnvConfig, prices: np.ndarray, steps: int, name: str
) -> BaselineResult:
    """Roll the environment under one fixed price profile.

    The users' responses depend only on the posted prices, so every step
    has the outcome of the first: one scored round, repeated.
    """
    executed, sold = env_step(scenario, env_config, prices)
    first = episode_outcomes(scenario, env_config, executed[None], sold[None])
    # the mean of the repeated column, which rounds unlike the value itself
    return _baseline(name, steps, Outcomes(*(np.repeat(col, steps, axis=0) for col in first)))


def play_random(
    scenario: Scenario, env_config: EnvConfig, steps: int, seed: int
) -> BaselineResult:
    """Roll the environment under uniformly random prices.

    One RNG stream, seeded by seed, draws the starting window first
    (env_reset), then every step's prices in one draw, each uniform on
    [0, p_max] (the same stream as one draw per step); all rounds are
    scored in one pass.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    env_reset(scenario, env_config, rng)
    prices, sold = np.empty((steps, scenario.n)), np.empty((steps, scenario.n))
    for k, row in enumerate(rng.uniform(0.0, env_config.p_max, size=(steps, scenario.n))):
        prices[k], sold[k] = env_step(scenario, env_config, row)
    return _baseline("random", steps, episode_outcomes(scenario, env_config, prices, sold))


def play_greedy(scenario: Scenario, env_config: EnvConfig, steps: int) -> BaselineResult:
    """Roll the environment paying the price cap to everyone."""
    return play_constant(scenario, env_config, np.full(scenario.n, env_config.p_max), steps,
                         "greedy")


# ---------------------------------------------------------------------------
# comparative-statics sweeps

# The user column each axis sweeps: a row's sweep value is that column.
SWEEP_FIELDS = {
    "delta": "own_value",
    "cost": "unit_cost",
    "demand_upper": "demand_hi",
    "lambda": "utility_scale",
}
SWEEP_AXES = tuple(SWEEP_FIELDS)


def user_columns(scenario: Scenario, res: EquilibriumResult) -> dict[str, np.ndarray]:
    """A solved scenario's user table, {column: array}: economics and equilibrium.

    One entry per user in user order; mu_index counts from 1, as the
    CSVs print it.
    """
    n = scenario.n
    return {
        "mu_index": np.arange(1, n + 1),
        "own_value": scenario.own_values(),
        "unit_cost": scenario.unit_costs(),
        "capacity": scenario.capacities(),
        "demand_lo": np.array([mu.demand.lo for mu in scenario.mus]),
        "demand_hi": np.array([mu.demand.hi for mu in scenario.mus]),
        "utility_scale": np.full(n, scenario.utility_scale),
        "price_threshold": price_box(scenario)[0],
        "p_star": res.prices,
        "x_star": res.allocations,
        "region": res.regions,
        "mu_payoff": res.mu_payoffs,
    }


def summary_columns(res: EquilibriumResult) -> dict[str, np.ndarray]:
    """The market-level table of one solve, {column: array}: a single row."""
    return {name: np.array([value]) for name, value in (
        ("sp_payoff", res.sp_payoff),
        ("total_allocation", np.sum(res.allocations)),
        ("iterations", res.iterations),
        ("grad_residual", res.grad_residual),
        ("converged", res.converged),
    )}


def _label(v: float) -> str:
    """A market's sweep label: v as %g when that reads back as v, else its repr."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def _concatenated(tables: list[dict]) -> dict[str, np.ndarray]:
    return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}


def run_sweep(
    spec: ScenarioSpec,
    axis: str,
    values: list[float],
    seed: int,
    solver: SolverConfig | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Solve equilibria along one axis, everything else held fixed.

    Returns the user table and the market table of every solve, the
    markets in order: user_columns, and summary_columns after a label
    column naming each market ("joint", or the swept value).

    delta and cost sweeps build a single scenario with one user per
    value (identical users otherwise, cost pinned at the range low end
    for delta, value pinned at the range high end for cost).
    demand_upper and lambda sweeps redraw nothing: the population comes
    from (spec, seed) once and is re-solved per value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    vals = [float(v) for v in values]
    if len(vals) < 2 or not all(map(math.isfinite, vals)):
        raise ValueError("a sweep needs at least two values, all finite")

    if axis in ("delta", "cost"):
        if axis == "delta":
            cost = spec.unit_cost_range[0]
            if any(v <= cost for v in vals):
                raise ValueError(f"every swept own_value must exceed unit_cost {cost}")
            mus = tuple(MuProfile(spec.capacity, v, cost, spec.demand()) for v in vals)
        else:
            value = spec.own_value_range[1]
            if any(v >= value for v in vals):
                raise ValueError(f"every swept unit_cost must stay below own_value {value}")
            mus = tuple(MuProfile(spec.capacity, value, v, spec.demand()) for v in vals)
        markets = [("joint", Scenario(spec.utility_scale, mus))]
    else:
        base = generate_scenario(spec, seed)
        markets = []
        for v in vals:
            if axis == "demand_upper":
                if v <= spec.demand_lo:
                    raise ValueError("demand_upper values must exceed demand_lo")
                demand = _DEMAND_KINDS[spec.demand_kind](spec.demand_lo, v)
                mus = tuple(replace(mu, demand=demand) for mu in base.mus)
                scenario = Scenario(base.utility_scale, mus)
            else:
                if v <= 0.0:
                    raise ValueError("utility scale values must be positive")
                scenario = Scenario(v, base.mus)
            markets.append((_label(v), scenario))

    users, summaries = [], []
    for label, scenario in markets:
        res = compute_se(scenario, solver)
        users.append(user_columns(scenario, res))
        summaries.append({"label": np.array([label]), **summary_columns(res)})
    return _concatenated(users), _concatenated(summaries)
