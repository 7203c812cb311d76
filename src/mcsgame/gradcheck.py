"""Finite-difference verification of every hand-written gradient.

Each check draws seeded random probes, compares an analytic derivative
against central differences of the quantity it claims to differentiate,
and reports the worst relative error.  The checks double as a library
for the test suite and as the engine of the gradcheck CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learner
from .follower import best_response
from .leader import price_box, sp_payoff_gradient, sp_payoff_hessian
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
    alloc = [best_response(mu, float(p[i])).allocation for i, mu in enumerate(scenario.mus)]
    return sp_payoff(alloc, p, scenario.utility_scale)


def _interior_price(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    lo, hi = price_box(scenario)
    return lo + rng.uniform(0.1, 0.9, size=scenario.n) * (hi - lo)


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic))


def check_leader_gradient(seed: int, probes: int = 10, perturb: float = 0.0) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(probes):
        sc = _random_scenario(rng)
        p = _interior_price(sc, rng)
        grad = sp_payoff_gradient(sc, p) * (1.0 + perturb)
        for i in range(sc.n):
            h = 1e-6
            e = np.zeros(sc.n)
            e[i] = h
            numeric = (_payoff_at(sc, p + e) - _payoff_at(sc, p - e)) / (2.0 * h)
            worst = max(worst, _rel_err(float(grad[i]), numeric))
    return CheckResult("leader_gradient", probes, worst, 1e-5)


def check_leader_hessian_diag(seed: int, probes: int = 10, perturb: float = 0.0) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(probes):
        sc = _random_scenario(rng)
        p = _interior_price(sc, rng)
        hess = sp_payoff_hessian(sc, p) * (1.0 + perturb)
        base = _payoff_at(sc, p)
        for i in range(sc.n):
            h = 1e-4
            e = np.zeros(sc.n)
            e[i] = h
            numeric = (_payoff_at(sc, p + e) - 2.0 * base + _payoff_at(sc, p - e)) / (h * h)
            worst = max(worst, _rel_err(float(hess[i, i]), numeric))
    return CheckResult("leader_hessian_diag", probes, worst, 1e-3)


def _toy_policy(rng: np.random.Generator):
    actor = learner.mlp_init((6, 5, 4, 2), rng, bounded_output=True, output_scale=1.0)
    critic = learner.mlp_init((6, 5, 4, 1), rng)
    log_std = rng.uniform(-1.0, -0.3, size=2)
    return learner.PolicyParams(actor, log_std, critic, 1.0)


def _toy_buffer(policy, rng: np.random.Generator, steps: int = 5):
    buf = learner.TrajectoryBuffer(steps)
    for _ in range(steps):
        feats = rng.uniform(-1.0, 1.0, size=6)
        mean = learner.mlp_forward(policy.actor, feats)
        action = mean + np.exp(policy.log_std) * rng.standard_normal(2)
        # jitter the stored density so the ratios differ from 1
        logp = learner.gaussian_log_prob(mean, policy.log_std, action) + rng.uniform(-0.05, 0.05)
        buf.add(feats, action, logp, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    buf.bootstrap_value = float(rng.uniform(0.0, 1.0))
    return buf


def _actor_flat(policy) -> np.ndarray:
    parts = [W.ravel() for W in policy.actor.weights]
    parts += [b for b in policy.actor.biases]
    parts += [policy.log_std]
    return np.concatenate(parts)


def _set_actor_flat(policy, vec: np.ndarray) -> None:
    i = 0
    for W in policy.actor.weights:
        W.flat[:] = vec[i : i + W.size]
        i += W.size
    for b in policy.actor.biases:
        b[:] = vec[i : i + b.size]
        i += b.size
    policy.log_std[:] = vec[i:]


def _critic_flat(policy) -> np.ndarray:
    parts = [W.ravel() for W in policy.critic.weights]
    parts += [b for b in policy.critic.biases]
    return np.concatenate(parts)


def _set_critic_flat(policy, vec: np.ndarray) -> None:
    i = 0
    for W in policy.critic.weights:
        W.flat[:] = vec[i : i + W.size]
        i += W.size
    for b in policy.critic.biases:
        b[:] = vec[i : i + b.size]
        i += b.size


def check_mlp_backward(seed: int, probes: int = 10, perturb: float = 0.0) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for k in range(probes):
        bounded = k % 2 == 0
        net = learner.mlp_init((5, 4, 3), rng, bounded_output=bounded, output_scale=1.5)
        x = rng.uniform(-1.0, 1.0, size=(3, 5))
        upstream = rng.uniform(-1.0, 1.0, size=(3, 3))
        grads = learner.mlp_backward(net, x, upstream)

        def loss() -> float:
            return float(np.sum(learner.mlp_forward(net, x) * upstream))

        for arrs, ga in ((net.weights, grads.weights), (net.biases, grads.biases)):
            for arr, g in zip(arrs, ga):
                flat = arr.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + 1e-5
                    up = loss()
                    flat[i] = keep - 1e-5
                    dn = loss()
                    flat[i] = keep
                    worst = max(
                        worst,
                        _rel_err(float(g.reshape(-1)[i]) * (1.0 + perturb), (up - dn) / 2e-5),
                    )
    return CheckResult("mlp_backward", probes, worst, 1e-4)


def check_actor_gradient(seed: int, probes: int = 5, perturb: float = 0.0) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    eps, gamma = 0.2, 0.9
    for _ in range(probes):
        policy = _toy_policy(rng)
        buf = _toy_buffer(policy, rng)
        g = learner.ppo_actor_gradient(policy, buf, eps, gamma)
        analytic = np.concatenate(
            [W.ravel() for W in g.mlp.weights] + [b for b in g.mlp.biases] + [g.log_std]
        ) * (1.0 + perturb)
        base = _actor_flat(policy)
        for i in range(base.size):
            v = base.copy()
            v[i] += 1e-6
            _set_actor_flat(policy, v)
            up = learner.ppo_surrogate(policy, buf, eps, gamma)
            v[i] -= 2e-6
            _set_actor_flat(policy, v)
            dn = learner.ppo_surrogate(policy, buf, eps, gamma)
            worst = max(worst, _rel_err(float(analytic[i]), (up - dn) / 2e-6))
        _set_actor_flat(policy, base)
    return CheckResult("ppo_actor_gradient", probes, worst, 1e-4)


def check_critic_gradient(seed: int, probes: int = 5, perturb: float = 0.0) -> CheckResult:
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    gamma = 0.9
    for _ in range(probes):
        policy = _toy_policy(rng)
        buf = _toy_buffer(policy, rng)
        _, grads = learner.critic_loss_and_gradient(policy, buf, gamma)
        analytic = np.concatenate(
            [W.ravel() for W in grads.weights] + [b for b in grads.biases]
        ) * (1.0 + perturb)
        base = _critic_flat(policy)
        for i in range(base.size):
            v = base.copy()
            v[i] += 1e-6
            _set_critic_flat(policy, v)
            up = learner.critic_loss_and_gradient(policy, buf, gamma)[0]
            v[i] -= 2e-6
            _set_critic_flat(policy, v)
            dn = learner.critic_loss_and_gradient(policy, buf, gamma)[0]
            worst = max(worst, _rel_err(float(analytic[i]), (up - dn) / 2e-6))
        _set_critic_flat(policy, base)
    return CheckResult("critic_gradient", probes, worst, 1e-4)


_CHECKS = {
    "leader_gradient": check_leader_gradient,
    "leader_hessian_diag": check_leader_hessian_diag,
    "mlp_backward": check_mlp_backward,
    "ppo_actor_gradient": check_actor_gradient,
    "critic_gradient": check_critic_gradient,
}

CHECK_NAMES = tuple(_CHECKS)


def run_all(seed: int = 0, corrupt: str | None = None) -> list[CheckResult]:
    """Run every registered check.

    ``corrupt`` names one check whose analytic gradient gets a 1 percent
    multiplicative error injected, to prove the comparison actually
    detects wrong gradients.
    """
    if corrupt is not None and corrupt not in _CHECKS:
        raise ValueError(f"unknown check {corrupt!r}, have {sorted(_CHECKS)}")
    results = []
    for name, fn in _CHECKS.items():
        results.append(fn(seed, perturb=0.01 if name == corrupt else 0.0))
    return results
