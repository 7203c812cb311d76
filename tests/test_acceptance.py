"""Full-system acceptance gate.

Ten criteria cover the whole stack: follower responses against brute
force, solver optimality and uniqueness, structural bounds, gradient
verification, comparative statics, learning performance and CLI
determinism.  Each test prints one PASS line (visible with -s or -rA)
so a run reads as a checklist.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from conftest import assert_concave_at, make_scenario
from mcsgame.cli import main
from mcsgame.dynamics import EnvConfig
from mcsgame.experiments import ScenarioSpec, generate_scenario, play_greedy, play_random, run_sweep
from mcsgame.follower import Region, best_response, foc_residual, price_threshold
from mcsgame.gradcheck import run_all
from mcsgame.leader import compute_se, price_box, sp_payoff_gradient
from mcsgame.learner import TrainConfig, train
from mcsgame.model import LinearDemand, MuProfile, Scenario, UniformDemand
from oracles import (
    follower_grid_best,
    leader_ascent,
    leader_grid_best_uniform_n1,
    mu_payoff_oracle,
    random_mu_params,
)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _announce(num, text, elapsed=None):
    suffix = f"  ({elapsed:.1f} s)" if elapsed is not None else ""
    print(f"PASS  criterion {num:02d}: {text}{suffix}")


def _mu_from_params(kind, lo, hi, cap, value, cost):
    dist = UniformDemand(lo, hi) if kind == "uniform" else LinearDemand(lo, hi)
    return MuProfile(cap, value, cost, dist)


# ---------------------------------------------------------------------------


def test_criterion_01_follower_matches_brute_force():
    t0 = time.perf_counter()
    rng = _rng(101)
    n_grid = 10000
    for _ in range(100):
        kind, lo, hi, cap, value, cost = random_mu_params(rng)
        mu = _mu_from_params(kind, lo, hi, cap, value, cost)
        step = cap / (n_grid - 1)
        for _ in range(20):
            price = float(rng.uniform(0.0, 1.1 * value))
            resp = best_response(mu, price)
            x_grid, u_grid = follower_grid_best(kind, lo, hi, cap, value, cost, price, n_grid)
            assert abs(resp.allocation - x_grid) <= 2.0 * step
            u_resp = float(mu_payoff_oracle(kind, lo, hi, cap, value, cost, resp.allocation, price))
            assert u_grid - u_resp <= 1e-6 * (1.0 + abs(u_grid))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    _announce(1, "best responses match a 10^4-point grid search", elapsed)


def test_criterion_02_interior_foc_residuals():
    rng = _rng(202)
    checked = 0
    while checked < 100:
        kind, lo, hi, cap, value, cost = random_mu_params(rng)
        mu = _mu_from_params(kind, lo, hi, cap, value, cost)
        thr = price_threshold(mu)
        price = float(rng.uniform(thr, value))
        resp = best_response(mu, price)
        if resp.region is not Region.INTERIOR:
            continue
        assert abs(foc_residual(mu, resp.allocation, price)) <= 1e-9
        checked += 1
    _announce(2, "interior first-order residuals below 1e-9")


def test_criterion_03_single_user_solver_vs_grid():
    t0 = time.perf_counter()
    scen = Scenario(
        utility_scale=50.0,
        mus=(MuProfile(20.0, 1.0, 0.0, UniformDemand(0.0, 25.0)),),
    )
    res = compute_se(scen)
    p_ref, payoff_ref, _ = leader_grid_best_uniform_n1(1.0, 0.0, 0.0, 25.0, 20.0, 50.0, step=1e-4)
    assert res.converged
    assert abs(float(res.prices[0]) - p_ref) <= 1e-3
    assert abs(res.sp_payoff - payoff_ref) <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0
    _announce(3, "single-user optimum agrees with a 1e-4-step grid", elapsed)


_SOLVED = {}


def _solved_scenarios():
    if not _SOLVED:
        for seed in range(50):
            scen = generate_scenario(ScenarioSpec(), seed=seed)
            _SOLVED[seed] = (scen, compute_se(scen))
    return _SOLVED


def test_criterion_04_multistart_uniqueness():
    # the exact solver's prices carry their own KKT certificate, and five
    # independent price-space ascents from random points of the box all
    # land on them
    t0 = time.perf_counter()
    for seed, (scen, res) in _solved_scenarios().items():
        assert res.converged
        p = res.prices
        lo, hi = price_box(scen)
        assert np.max(np.abs(p - np.clip(p + sp_payoff_gradient(scen, p), lo, hi))) <= 1e-8
        # ScenarioSpec() users share one demand law and capacity
        ((kind, d_lo, d_hi, cap),) = {
            (mu.demand.kind, mu.demand.lo, mu.demand.hi, mu.capacity) for mu in scen.mus
        }
        finals = []
        for k in range(5):
            p0 = lo + _rng(seed + k).uniform(0.0, 1.0, size=scen.n) * (hi - lo)
            p_ref, residual = leader_ascent(
                kind, d_lo, d_hi, cap, scen.own_value, scen.unit_cost,
                scen.utility_scale, p0,
            )
            assert residual <= 1e-8
            assert np.max(np.abs(p_ref - p)) <= 1e-5
            finals.append(p_ref)
        assert np.max(np.ptp(finals, axis=0)) <= 1e-5
    _announce(4, "exact solver and five reference ascents agree on 50 scenarios",
              time.perf_counter() - t0)


def test_criterion_05_price_bound():
    for scen, res in _solved_scenarios().values():
        x = res.allocations
        p = res.prices
        marginal = scen.utility_scale / (1.0 + float(np.sum(np.log1p(x))))
        assert np.all(p <= marginal / (1.0 + x) + 1e-8)
    _announce(5, "equilibrium prices respect the marginal-utility bound")


def _margin_population(rng, law, n=5):
    # value - cost >= 0.1 keeps the response slope bounded; without the
    # margin the Hessian scales like (value - cost)^-2 and a
    # finite-difference stencil of any fixed step is meaningless
    mus = []
    while len(mus) < n:
        cost = float(rng.uniform(0.0, 0.8))
        value = float(rng.uniform(0.0, 1.0))
        if value - cost < 0.1:
            continue
        mus.append(MuProfile(20.0, value, cost, law(0.0, 25.0)))
    return Scenario(utility_scale=float(rng.uniform(20.0, 60.0)), mus=tuple(mus))


def test_criterion_06_concavity_certificate():
    # the Hessian as central differences of sp_payoff_gradient, the
    # gradient compute_se certifies with, half the points per demand law;
    # linear demand is concave in price only where each price is at most
    # its user's marginal utility, as at and below the equilibrium prices
    rng = _rng(606)
    for k in range(100):
        law = (UniformDemand, LinearDemand)[k % 2]
        scen = _margin_population(rng, law)
        lo, hi = price_box(scen)
        top = hi if law is UniformDemand else compute_se(scen).prices
        assert_concave_at(scen, lo + rng.uniform(0.2, 0.8, scen.n) * (top - lo))
    _announce(6, "payoff Hessian negative definite at 100 interior points "
                 "(linear demand: below the equilibrium prices)")


def test_criterion_07_gradient_suite():
    results = run_all(seed=0)
    by_name = {r.name: r for r in results}
    assert by_name["leader_gradient"].tol == 1e-5
    for name in ("mlp_backward", "ppo_actor_gradient", "critic_gradient"):
        assert by_name[name].tol == 1e-4
    for r in results:
        assert r.passed, f"{r.name}: {r.max_rel_err:.3e} > {r.tol:.1e}"
    _announce(7, "all registered gradients match central differences")


def test_criterion_08_comparative_statics():
    t0 = time.perf_counter()

    spec = dataclasses.replace(ScenarioSpec(), unit_cost_range=(0.0, 0.0))
    users, summary = run_sweep(spec, "delta", list(np.linspace(0.1, 1.0, 10)), seed=0)
    assert summary["converged"].all()
    xs = users["x_star"]
    assert all(b <= a + 1e-9 for a, b in zip(xs, xs[1:]))

    spec = dataclasses.replace(ScenarioSpec(), own_value_range=(1.0, 1.0))
    users, summary = run_sweep(spec, "cost", list(np.linspace(0.0, 0.9, 10)), seed=0)
    assert summary["converged"].all()
    ps = users["p_star"]
    assert all(b >= a - 1e-9 for a, b in zip(ps, ps[1:]))

    # Prices and platform payoff move monotonically in the demand cap
    # for any population; per-user allocations can invert for nearly
    # marginal users (own value barely above the equilibrium price), so
    # that trend is asserted on a population of clearly inframarginal
    # users (seed 4: min own_value 0.61).
    spec = dataclasses.replace(ScenarioSpec(), utility_scale=30.0)
    n = spec.n_mus
    for seed in (0, 1, 4):
        users, summary = run_sweep(spec, "demand_upper", [20.0, 25.0, 30.0], seed=seed)
        assert summary["converged"].all()
        # a row per market, a column per user
        prices, allocations = (users[c].reshape(3, n) for c in ("p_star", "x_star"))
        assert (prices[1:] >= prices[:-1] - 1e-9).all()
        if seed == 4:
            assert (allocations[1:] <= allocations[:-1] + 1e-9).all()
        payoffs = summary["sp_payoff"]
        assert all(b <= a + 1e-9 for a, b in zip(payoffs, payoffs[1:]))

    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    _announce(8, "sweeps reproduce all comparative-statics trends", elapsed)


def test_criterion_09_learning_recovers_equilibrium():
    t0 = time.perf_counter()
    scenario = generate_scenario(ScenarioSpec(), seed=7)
    env = EnvConfig()
    se = compute_se(scenario)
    greedy = play_greedy(scenario, env, steps=1000)
    rand = play_random(scenario, env, steps=1000, seed=0)

    passes = 0
    details = []
    for seed in (0, 1, 2):
        _, trace = train(scenario, env, TrainConfig(seed=seed))
        late = float(np.mean([ep.mean_sp_payoff for ep in trace[-50:]]))
        ok = (
            late >= 0.9 * se.sp_payoff
            and late > greedy.mean_sp_payoff
            and late > rand.mean_sp_payoff
        )
        passes += ok
        details.append(f"seed {seed}: {late:.2f} ({late / se.sp_payoff:.1%} of SE)")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 900.0
    assert passes >= 2, "; ".join(details)
    _announce(9, f"learned pricing reaches 90% of equilibrium [{'; '.join(details)}]", elapsed)


def test_criterion_10_cli_determinism(tmp_path):
    pairs = []
    for name, args in (
        ("static", ["static", "--seed", "2"]),
        (
            "train",
            [
                "train", "--seed", "2", "--svg", "off",
                "--set", "train.episodes=2",
                "--set", "train.steps_per_batch=8",
                "--set", "train.hidden=[8]",
            ],
        ),
        (
            "sweep",
            ["sweep", "--seed", "2", "--set", "sweep.axis=lambda", "--set", "sweep.values=[20,50]"],
        ),
    ):
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        ma = json.loads((a / "manifest.json").read_text())["artifacts"]
        mb = json.loads((b / "manifest.json").read_text())["artifacts"]
        assert ma == mb
        pairs.append(name)
    _announce(10, f"reruns hash-identical for {', '.join(pairs)}")
