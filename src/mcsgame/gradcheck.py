"""Finite-difference verification of every hand-written gradient.

Each check draws seeded random probes, compares an analytic derivative
against central differences of the quantity it claims to differentiate,
and reports the worst relative error |analytic - numeric| / max(1,
|analytic|).  The checks double as a library for the test suite and as
the engine of the gradcheck CLI command.

The network checks run on plain MLPs with linear heads; the actor's
squash p_max * sigmoid(z) is checked where it lives, in the PPO actor
gradient, on a toy policy with p_max = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learner
from .dynamics import respond
from .leader import price_box, sp_payoff_gradient
from .model import MuProfile, Scenario, UniformDemand, sp_payoff

__all__ = ["CheckResult", "run_all", "CHECK_NAMES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    probes: int
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def _random_scenario(rng: np.random.Generator, n: int = 4) -> Scenario:
    mus = []
    for _ in range(n):
        while True:
            cost = rng.uniform(0.0, 0.8)
            value = rng.uniform(0.0, 1.0)
            # keep a healthy margin so difference stencils stay in-branch
            if value - cost >= 0.1:
                break
        mus.append(MuProfile(20.0, value, cost, UniformDemand(0.0, 25.0)))
    return Scenario(utility_scale=rng.uniform(20.0, 60.0), mus=tuple(mus))


def _payoff_at(scenario: Scenario, p: np.ndarray) -> float:
    return sp_payoff(respond(scenario, p), p, scenario.utility_scale)


def _interior_price(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    lo, hi = price_box(scenario)
    return lo + rng.uniform(0.1, 0.9, size=scenario.n) * (hi - lo)


def _stencil(evaluate, arrays, h: float) -> tuple[np.ndarray, np.ndarray]:
    """evaluate() with each entry of arrays moved in place to keep + h, then keep - h.

    Entries are taken array by array in flat order, each restored before
    the next is moved; the two returned vectors hold the values.
    """
    up, dn = [], []
    for a in arrays:
        for i in range(a.size):
            keep = a.flat[i]
            a.flat[i] = keep + h
            up.append(evaluate())
            a.flat[i] = keep - h
            dn.append(evaluate())
            a.flat[i] = keep
    return np.array(up), np.array(dn)


def _worst(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))))


def _flat(arrays) -> np.ndarray:
    """The entries of several arrays, one after another, as one vector."""
    return np.concatenate([a.ravel() for a in arrays])


def _leader_gradient(rng: np.random.Generator, _k: int) -> float:
    sc = _random_scenario(rng)
    p = _interior_price(sc, rng)
    grad = sp_payoff_gradient(sc, p)
    h = 1e-6
    up, dn = _stencil(lambda: _payoff_at(sc, p), [p], h)
    return _worst(grad, (up - dn) / (2.0 * h))


def _toy_policy(rng: np.random.Generator):
    actor = learner.mlp_init((6, 5, 4, 2), rng)
    critic = learner.mlp_init((6, 5, 4, 1), rng)
    log_std = rng.uniform(-1.0, -0.3, size=2)
    return learner.PolicyParams(actor, log_std, critic, 1.0)


def _toy_batch(policy, rng: np.random.Generator, gamma: float, steps: int = 5):
    """A random episode batch and the bootstrap value it was built with."""
    rows = []  # (features, action, log density, reward, value) of each step
    for _ in range(steps):
        feats = rng.uniform(-1.0, 1.0, size=6)
        action, mean = learner.policy_sample(
            policy, feats, (np.exp(policy.log_std) * rng.standard_normal(2)).tolist())
        # jitter the stored density so the ratios differ from 1
        logp = learner.gaussian_log_prob(mean, policy.log_std, action) + rng.uniform(-0.05, 0.05)
        rows.append((feats, action, logp, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
    feats, actions, logps, rewards, values = zip(*rows)
    bootstrap = float(rng.uniform(0.0, 1.0))
    batch = learner.episode_batch(feats, actions, logps, rewards, [*values, bootstrap], gamma)
    return batch, bootstrap


def _mlp_backward(rng: np.random.Generator, _k: int) -> float:
    net = learner.mlp_init((5, 4, 3), rng)
    x = rng.uniform(-1.0, 1.0, size=(3, 5))
    upstream = rng.uniform(-1.0, 1.0, size=(3, 3))
    grads = learner.mlp_backward(net, x, upstream)
    h = 1e-5
    up, dn = _stencil(
        lambda: float(np.sum(learner.mlp_forward(net, x) * upstream)), [*net.weights, *net.biases], h
    )
    return _worst(_flat([*grads.weights, *grads.biases]), (up - dn) / (2.0 * h))


_GAMMA, _EPSILON = 0.9, 0.2


def _actor_gradient(rng: np.random.Generator, _k: int) -> float:
    policy = _toy_policy(rng)
    batch, _ = _toy_batch(policy, rng, _GAMMA)
    g = learner.ppo_actor_gradient(policy, batch, _EPSILON)
    params = [*policy.actor.weights, *policy.actor.biases, policy.log_std]
    h = 1e-6
    up, dn = _stencil(lambda: learner.ppo_surrogate(policy, batch, _EPSILON), params, h)
    return _worst(_flat([*g.mlp.weights, *g.mlp.biases, g.log_std]), (up - dn) / (2.0 * h))


def _critic_gradient(rng: np.random.Generator, _k: int) -> float:
    policy = _toy_policy(rng)
    batch, _ = _toy_batch(policy, rng, _GAMMA)
    _, grads = learner.critic_loss_and_gradient(policy, batch)
    params = [*policy.critic.weights, *policy.critic.biases]
    h = 1e-6
    up, dn = _stencil(lambda: learner.critic_loss_and_gradient(policy, batch)[0], params, h)
    return _worst(_flat([*grads.weights, *grads.biases]), (up - dn) / (2.0 * h))


# name: (one probe's worst relative error from the check's generator and
# the probe's index, probes per run, tolerance)
_CHECKS = {
    "leader_gradient": (_leader_gradient, 10, 1e-5),
    "mlp_backward": (_mlp_backward, 10, 1e-4),
    "ppo_actor_gradient": (_actor_gradient, 5, 1e-4),
    "critic_gradient": (_critic_gradient, 5, 1e-4),
}

CHECK_NAMES = tuple(_CHECKS)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every registered check, each on its own generator seeded with seed.

    A check's error is the largest over its probes; a NaN error fails it.
    """
    results = []
    for name, (probe, probes, tol) in _CHECKS.items():
        rng = np.random.Generator(np.random.PCG64(seed))
        worst = float(np.max([probe(rng, k) for k in range(probes)]))
        results.append(CheckResult(name, probes, worst, tol))
    return results
