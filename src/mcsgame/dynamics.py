"""Repeated pricing game as a deterministic decision process.

The platform posts a price profile each round and the users respond
myopically with their static best responses.  A round's outcome
therefore depends only on the prices posted in it: env_step is
stateless, and the history of (price, allocation) rounds is the
learner's observation, which it keeps itself.  env_reset draws the
random starting window of L rounds, as (L, N) arrays of prices and
allocations; after it, the only randomness is whatever the acting
policy injects.

The platform-side learner is only ever handed prices, allocations and
rewards, never user profiles, so everything private to the users stays
behind env_step and episode_outcomes.

env_step does only what the next observation needs: it checks the
action once (length, finiteness), clamps it and returns the executed
prices and each user's sale (follower.sale) as lists of floats.
episode_outcomes then scores an episode's rounds in one pass: rewards,
platform payoffs (the expression of model.sp_payoff per row) and user
payoffs (model's vectorized mu_payoff over the scenario's columns, as
in compute_se).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .follower import sale
from .model import Scenario, _mu_payoffs

__all__ = [
    "EnvConfig",
    "Outcomes",
    "respond",
    "env_reset",
    "env_step",
    "episode_outcomes",
    "step_mean",
]

# The largest user count, history window, batch length or layer width: an episode's
# feature matrix (steps x 2 * rounds * users floats) then stays below 2**63 bytes, numpy's limit.
MAX_COUNT = 2**19


@dataclass(frozen=True)
class EnvConfig:
    """Observation window and action/reward scaling for the environment."""

    history_rounds: int = 3
    reward_scale: float = 0.01
    p_max: float = 1.0

    def __post_init__(self):
        if not 1 <= self.history_rounds <= MAX_COUNT:
            raise ValueError(f"history_rounds must lie in [1, {MAX_COUNT}]")
        if not (math.isfinite(self.reward_scale) and self.reward_scale > 0.0):
            raise ValueError("reward_scale must be positive")
        if not (math.isfinite(self.p_max) and self.p_max > 0.0):
            raise ValueError("p_max must be positive")


class Outcomes(NamedTuple):
    """The payoffs of D played rounds, one row per round: arrays (D,), (D,) and (D, N)."""

    reward: np.ndarray
    sp_payoff: np.ndarray
    mu_payoffs: np.ndarray


def respond(scenario: Scenario, prices: np.ndarray) -> np.ndarray:
    """Myopic best-response allocations of every user to posted prices.

    prices must be finite and non-negative; env_reset and env_step check
    them once, so no price is checked again here.
    """
    return np.array([sale(mu, p)[0] for mu, p in zip(scenario.mus, prices.tolist())])


def env_reset(scenario: Scenario, config: EnvConfig,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw the starting history window: (prices, allocations), each (L, N), oldest round first.

    Prices for each of the L seed rounds are drawn uniformly from
    [0, p_max], and allocations are the users' responses to those prices.
    """
    prices = rng.uniform(0.0, config.p_max, size=(config.history_rounds, scenario.n))
    return prices, np.array([respond(scenario, row) for row in prices])


def env_step(scenario: Scenario, config: EnvConfig, action) -> tuple[list, list]:
    """Post prices and collect the users' sales: (executed prices, allocations), as lists.

    The action, a list or array (N,), is checked here, once: its length and
    finiteness.  The executed prices are then non-negative, finite and of the
    users' count, and the sales are computed from them without further checks.
    """
    shape = (len(action),) if isinstance(action, list) else np.shape(action)
    if shape != (scenario.n,):
        raise ValueError(f"action must have {scenario.n} entries, got shape {shape}")
    requested = action if isinstance(action, list) else np.asarray(action, dtype=float).tolist()
    if not all(map(math.isfinite, requested)):
        raise ValueError("action prices must be finite")
    # np.clip(raw, 0, p_max) bit for bit (a -0.0 stays -0.0), without
    # its per-call cost
    p_max = config.p_max
    prices = [0.0 if v < 0.0 else (p_max if v > p_max else v) for v in requested]
    return prices, [sale(mu, p)[0] for mu, p in zip(scenario.mus, prices)]


def episode_outcomes(scenario: Scenario, config: EnvConfig, prices, allocations) -> Outcomes:
    """Score D rounds of (D, N) executed prices and their sales from env_step.

    Row for row the bits of model.sp_payoff, reward_scale times it and each model.mu_payoff.
    """
    aggregates = 1.0 + np.log1p(allocations).sum(axis=1)  # model._aggregate per row
    utility = np.array([math.log(b) for b in aggregates.tolist()])
    sp = scenario.utility_scale * utility - np.vecdot(prices, allocations)
    return Outcomes(config.reward_scale * sp, sp, _mu_payoffs(scenario, allocations, prices))


def step_mean(column: np.ndarray) -> np.ndarray:
    """Mean over the steps (axis 0), each scaled before the sum so finite steps give a finite mean."""
    return np.sum(column / len(column), axis=0)
