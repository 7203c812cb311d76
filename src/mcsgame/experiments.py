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
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import EnvConfig, env_reset, env_step, greedy_policy, random_policy
from .follower import price_threshold
from .leader import EquilibriumResult, SolverConfig, compute_se
from .model import DemandDistribution, LinearDemand, MuProfile, Scenario, UniformDemand

__all__ = [
    "ScenarioSpec",
    "generate_scenario",
    "BaselineResult",
    "play_constant",
    "play_greedy",
    "play_random",
    "SweepPoint",
    "SweepDenseRow",
    "SweepResult",
    "SWEEP_AXES",
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
        if self.n_mus < 1:
            raise ValueError("n_mus must be at least 1")
        if self.demand_kind not in _DEMAND_KINDS:
            raise ValueError(f"unknown demand kind {self.demand_kind!r}")
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
    mean_mu_payoffs: np.ndarray


def play_constant(
    scenario: Scenario, env_config: EnvConfig, prices: np.ndarray, steps: int, seed: int, name: str
) -> BaselineResult:
    """Roll the environment under one fixed price profile."""
    rng = np.random.Generator(np.random.PCG64(seed))
    state = env_reset(scenario, env_config, rng)
    total_payoff = 0.0
    total_reward = 0.0
    total_mu = np.zeros(scenario.n)
    for _ in range(steps):
        tr = env_step(scenario, env_config, state, prices)
        state = tr.next_state
        total_payoff += tr.sp_payoff
        total_reward += tr.reward
        total_mu += tr.mu_payoffs
    return BaselineResult(name, steps, total_payoff / steps, total_reward / steps, total_mu / steps)


def play_random(
    scenario: Scenario, env_config: EnvConfig, steps: int, seed: int
) -> BaselineResult:
    """Roll the environment under uniformly random prices."""
    rng = np.random.Generator(np.random.PCG64(seed))
    state = env_reset(scenario, env_config, rng)
    total_payoff = 0.0
    total_reward = 0.0
    total_mu = np.zeros(scenario.n)
    for _ in range(steps):
        tr = env_step(scenario, env_config, state, random_policy(scenario.n, env_config, rng))
        state = tr.next_state
        total_payoff += tr.sp_payoff
        total_reward += tr.reward
        total_mu += tr.mu_payoffs
    return BaselineResult("random", steps, total_payoff / steps, total_reward / steps, total_mu / steps)


def play_greedy(
    scenario: Scenario, env_config: EnvConfig, steps: int, seed: int
) -> BaselineResult:
    """Roll the environment paying the price cap to everyone."""
    return play_constant(
        scenario, env_config, greedy_policy(scenario, env_config), steps, seed, "greedy"
    )


# ---------------------------------------------------------------------------
# comparative-statics sweeps

SWEEP_AXES = ("delta", "cost", "demand_upper", "lambda")


@dataclass(frozen=True)
class SweepPoint:
    """One (swept value, user) row of a sweep."""

    sweep_value: float
    mu_index: int
    own_value: float
    unit_cost: float
    capacity: float
    demand_lo: float
    demand_hi: float
    utility_scale: float
    price_threshold: float
    p_star: float
    x_star: float
    mu_payoff: float


@dataclass(frozen=True)
class SweepDenseRow:
    """Scenario-level summary of one solved sweep point."""

    label: str
    sp_payoff: float
    total_allocation: float
    iterations: int
    grad_residual: float
    converged: bool


@dataclass(frozen=True)
class SweepResult:
    axis: str
    points: list[SweepPoint] = field(default_factory=list)
    summaries: list[SweepDenseRow] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.summaries)


def _rows_for(scenario: Scenario, res: EquilibriumResult, values_by_mu) -> list[SweepPoint]:
    rows = []
    for i, mu in enumerate(scenario.mus):
        rows.append(
            SweepPoint(
                sweep_value=float(values_by_mu[i]),
                mu_index=i,
                own_value=mu.own_value,
                unit_cost=mu.unit_cost,
                capacity=mu.capacity,
                demand_lo=mu.demand.lo,
                demand_hi=mu.demand.hi,
                utility_scale=scenario.utility_scale,
                price_threshold=price_threshold(mu),
                p_star=float(res.prices.values[i]),
                x_star=float(res.allocations.values[i]),
                mu_payoff=float(res.mu_payoffs[i]),
            )
        )
    return rows


def _summary(label: str, res: EquilibriumResult) -> SweepDenseRow:
    return SweepDenseRow(
        label=label,
        sp_payoff=res.sp_payoff,
        total_allocation=float(np.sum(res.allocations.values)),
        iterations=res.iterations,
        grad_residual=res.grad_residual,
        converged=res.converged,
    )


def run_sweep(
    spec: ScenarioSpec,
    axis: str,
    values: list[float],
    seed: int,
    solver: SolverConfig | None = None,
) -> SweepResult:
    """Solve equilibria along one axis, everything else held fixed.

    delta and cost sweeps build a single scenario with one user per
    value (identical users otherwise, cost pinned at the range low end
    for delta, value pinned at the range high end for cost).
    demand_upper and lambda sweeps redraw nothing: the population comes
    from (spec, seed) once and is re-solved per value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if len(values) < 2:
        raise ValueError("a sweep needs at least two values")
    vals = [float(v) for v in values]
    result = SweepResult(axis=axis)

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
        scenario = Scenario(spec.utility_scale, mus)
        res = compute_se(scenario, solver)
        result.points.extend(_rows_for(scenario, res, vals))
        result.summaries.append(_summary("joint", res))
        return result

    base = generate_scenario(spec, seed)
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
        res = compute_se(scenario, solver)
        result.points.extend(_rows_for(scenario, res, [v] * scenario.n))
        result.summaries.append(_summary(f"{v:g}", res))
    return result
