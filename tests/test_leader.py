import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from mcsgame.experiments import ScenarioSpec, generate_scenario
from mcsgame.follower import Region, best_response, price_threshold
from mcsgame.leader import (
    SolverConfig,
    compute_se,
    price_box,
    sp_payoff_gradient,
    sp_payoff_hessian,
)
from mcsgame.model import (
    DemandDistribution,
    LinearDemand,
    MuProfile,
    Scenario,
    UniformDemand,
    mu_payoff,
    sp_payoff,
)
from conftest import make_scenario
from oracles import leader_grid_best_uniform_n1, mu_payoff_oracle


def _perturbed_payoff(scenario, p):
    allocs = np.array([best_response(mu, float(v)).allocation for mu, v in zip(scenario.mus, p)])
    return sp_payoff(allocs, p, scenario.utility_scale)


# ---------------------------------------------------------------------------
# gradient and Hessian


def test_gradient_hand_example(single_mu_scenario):
    # at the threshold price 0.2: x=0, b=1, dx/dp=25 -> 50*25 - 0.2*25 - 0
    g = sp_payoff_gradient(single_mu_scenario, np.array([0.2]))
    assert g[0] == pytest.approx(1245.0, abs=1e-9)


def test_gradient_negative_at_top(single_mu_scenario):
    g = sp_payoff_gradient(single_mu_scenario, np.array([1.0]))
    b = 1.0 + math.log(21.0)
    want = (50.0 / b) * (25.0 / 21.0) - 25.0 - 20.0
    assert g[0] == pytest.approx(want, abs=1e-9)
    assert g[0] < 0.0


def test_gradient_matches_finite_differences():
    h = 1e-6
    for seed in (3, 9):
        scenario = make_scenario(seed)
        lo, hi = price_box(scenario)
        rng = np.random.Generator(np.random.PCG64(seed + 100))
        p = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=scenario.n)
        g = sp_payoff_gradient(scenario, p)
        for i in range(scenario.n):
            e = np.zeros(scenario.n)
            e[i] = h
            fd = (_perturbed_payoff(scenario, p + e) - _perturbed_payoff(scenario, p - e)) / (
                2.0 * h
            )
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_hessian_symmetry_and_negative_definiteness():
    rng = np.random.Generator(np.random.PCG64(53))
    for seed in (1, 4, 8):
        scenario = make_scenario(seed)
        lo, hi = price_box(scenario)
        for _ in range(20):
            p = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=scenario.n)
            h = sp_payoff_hessian(scenario, p)
            assert np.array_equal(h, h.T)
            for _ in range(10):
                v = rng.standard_normal(scenario.n)
                assert v @ h @ v < 0.0


def test_hessian_diagonal_matches_second_differences():
    h = 1e-4
    for seed, demand in ((2, UniformDemand(0.0, 25.0)), (2, LinearDemand(0.0, 25.0))):
        base = make_scenario(seed)
        mus = tuple(replace(mu, demand=demand) for mu in base.mus)
        scenario = Scenario(50.0, mus)
        lo, hi = price_box(scenario)
        p = lo + 0.5 * (hi - lo)
        diag = np.diag(sp_payoff_hessian(scenario, p))
        for i in range(scenario.n):
            e = np.zeros(scenario.n)
            e[i] = h
            fd = (
                _perturbed_payoff(scenario, p + e)
                - 2.0 * _perturbed_payoff(scenario, p)
                + _perturbed_payoff(scenario, p - e)
            ) / (h * h)
            assert diag[i] == pytest.approx(fd, rel=1e-3)


def test_hessian_rejects_box_faces(five_mu_scenario):
    lo, hi = price_box(five_mu_scenario)
    with pytest.raises(ValueError):
        sp_payoff_hessian(five_mu_scenario, lo)


def test_gradient_is_signed_infinity_at_vanishing_density():
    # capacity past a linear support: at the lower face p = unit_cost the
    # response slope is infinite, so the gradient's sign is that of
    # g / (1 + x) - p, with x = capacity - hi = 5 and b = 1 + ln 6
    mu = MuProfile(30.0, 1.0, 0.5, LinearDemand(0.0, 25.0))
    for lam, want in ((1.0, -math.inf), (50.0, math.inf)):
        g = sp_payoff_gradient(Scenario(lam, (mu,)), np.array([0.5]))
        assert g[0] == want
    res = compute_se(Scenario(1.0, (mu,)))
    assert res.converged and res.grad_residual == 0.0
    assert res.prices.values[0] == 0.5
    assert res.allocations.values[0] == 5.0


def test_gradient_rejects_out_of_box(five_mu_scenario):
    lo, hi = price_box(five_mu_scenario)
    with pytest.raises(ValueError):
        sp_payoff_gradient(five_mu_scenario, hi + 0.5)


# ---------------------------------------------------------------------------
# solver against the brute-force oracle


def test_single_user_matches_grid_search(single_mu_scenario):
    res = compute_se(single_mu_scenario)
    assert res.converged
    p_grid, sp_grid, _ = leader_grid_best_uniform_n1(1.0, 0.0, 0.0, 25.0, 20.0, 50.0, step=1e-4)
    assert abs(float(res.prices.values[0]) - p_grid) <= 1e-3
    assert abs(res.sp_payoff - sp_grid) <= 1e-4


@pytest.mark.parametrize("kind", ["uniform", "linear"])
def test_thousand_user_market_converges(kind):
    spec = ScenarioSpec(
        n_mus=1000, demand_kind=kind, unit_cost_range=(0.0, 0.45), own_value_range=(0.55, 1.0)
    )
    scenario = generate_scenario(spec, seed=0)
    res = compute_se(scenario)
    assert res.converged
    p = res.prices.values
    lo, hi = price_box(scenario)
    assert np.max(np.abs(p - np.clip(p + sp_payoff_gradient(scenario, p), lo, hi))) <= 1e-8


def test_payoff_nondecreasing_in_utility_scale():
    base = make_scenario(13)
    payoffs = []
    prices = []
    for lam in (20.0, 50.0, 100.0):
        res = compute_se(Scenario(lam, base.mus))
        assert res.converged
        payoffs.append(res.sp_payoff)
        prices.append(res.prices.values)
    assert payoffs[0] < payoffs[1] < payoffs[2]
    # a more valuable aggregate makes every price weakly rise
    assert np.all(prices[1] >= prices[0] - 1e-7)
    assert np.all(prices[2] >= prices[1] - 1e-7)


def test_optimal_price_marginal_utility_bound():
    # p*_n <= g'(b) / (1 + x*_n) at the optimum
    for seed in (6, 18):
        scenario = make_scenario(seed)
        res = compute_se(scenario)
        b = 1.0 + np.sum(np.log1p(res.allocations.values))
        bound = (scenario.utility_scale / b) / (1.0 + res.allocations.values)
        assert np.all(res.prices.values <= bound + 1e-8)


@pytest.mark.parametrize("demand", [UniformDemand(0.0, 25.0), LinearDemand(0.0, 25.0)])
def test_root_search_crosses_an_all_or_nothing_bracket(demand):
    # at the bottom of the marginal-utility bracket every user sits at
    # its threshold and at the top every user sells out, so plain Newton
    # steps jump from one end of the bracket to the other and back
    scenario = Scenario(25.0, tuple(MuProfile(20.0, 1.0, 0.9, demand) for _ in range(10)))
    res = compute_se(scenario)
    assert res.converged
    assert res.iterations <= 20


def test_tiny_utility_scale_degenerates():
    base = make_scenario(29)
    scenario = Scenario(1e-6, base.mus)
    res = compute_se(scenario)
    assert res.iterations <= 3
    thresholds = np.array([price_threshold(mu) for mu in scenario.mus])
    assert np.allclose(res.prices.values, thresholds, atol=1e-9)
    assert np.allclose(res.allocations.values, 0.0, atol=1e-9)


def test_mu_payoffs_nonnegative_at_se():
    for seed in (7, 42, 77):
        res = compute_se(make_scenario(seed))
        assert np.all(res.mu_payoffs >= -1e-12)


def test_non_convergence_reported():
    res = compute_se(make_scenario(3), SolverConfig(tol=1e-18))
    assert not res.converged
    assert res.iterations >= 2


def test_inadmissible_distribution_rejected():
    @dataclass(frozen=True)
    class RisingDemand(DemandDistribution):
        # density increases on the support, violating the solver's
        # concavity precondition
        kind = "rising"
        nonincreasing_density = False

        def pdf(self, z):
            w = self.hi - self.lo
            return 2.0 * (z - self.lo) / (w * w) if self.lo <= z <= self.hi else 0.0

        def cdf(self, z):
            if z <= self.lo:
                return 0.0
            if z >= self.hi:
                return 1.0
            return ((z - self.lo) / (self.hi - self.lo)) ** 2

        def quantile(self, q):
            return self.lo + (self.hi - self.lo) * math.sqrt(q)

        def pdf_slope(self, z):
            w = self.hi - self.lo
            return 2.0 / (w * w) if self.lo <= z <= self.hi else 0.0

        def sample(self, rng, size=None):
            return self.quantile(rng.uniform(0.0, 1.0, size))

    mu = MuProfile(20.0, 1.0, 0.0, RisingDemand(0.0, 25.0))
    scenario = Scenario(50.0, (mu,))
    with pytest.raises(ValueError):
        compute_se(scenario)


# ---------------------------------------------------------------------------
# equilibrium stability (no profitable unilateral deviation)


def test_leader_deviations_do_not_gain():
    scenario = make_scenario(42)
    res = compute_se(scenario)
    lo, hi = price_box(scenario)
    base = res.sp_payoff
    p = res.prices.values.copy()
    for i in range(scenario.n):
        for delta in (-1e-2, 1e-2):
            q = p.copy()
            q[i] = float(np.clip(q[i] + delta, lo[i], hi[i]))
            assert _perturbed_payoff(scenario, q) <= base + 1e-9


def test_follower_deviations_do_not_gain():
    scenario = make_scenario(42)
    res = compute_se(scenario)
    for i, mu in enumerate(scenario.mus):
        price = float(res.prices.values[i])
        x_star = float(res.allocations.values[i])
        u_star = mu_payoff(mu, x_star, price)
        for delta in (-1e-2, 1e-2):
            x = float(np.clip(x_star + delta, 0.0, mu.capacity))
            assert mu_payoff(mu, x, price) <= u_star + 1e-9


def test_se_allocations_are_best_responses():
    scenario = make_scenario(42)
    res = compute_se(scenario)
    for i, mu in enumerate(scenario.mus):
        br = best_response(mu, float(res.prices.values[i]))
        assert br.allocation == pytest.approx(float(res.allocations.values[i]), abs=1e-9)


def test_se_beats_follower_grid(single_mu_scenario):
    res = compute_se(single_mu_scenario)
    price = float(res.prices.values[0])
    x_star = float(res.allocations.values[0])
    grid = np.linspace(0.0, 20.0, 2001)
    u_grid = mu_payoff_oracle("uniform", 0.0, 25.0, 20.0, 1.0, 0.0, grid, price)
    u_star = float(mu_payoff_oracle("uniform", 0.0, 25.0, 20.0, 1.0, 0.0, x_star, price))
    assert u_star >= float(np.max(u_grid)) - 1e-9


# ---------------------------------------------------------------------------
# box and reporting conventions


def test_price_box_bounds(five_mu_scenario):
    lo, hi = price_box(five_mu_scenario)
    thresholds = np.array([price_threshold(mu) for mu in five_mu_scenario.mus])
    assert np.allclose(lo, thresholds)
    assert np.allclose(hi, five_mu_scenario.own_values())


def test_se_prices_stay_in_box():
    for seed in (2, 15):
        scenario = make_scenario(seed)
        res = compute_se(scenario)
        lo, hi = price_box(scenario)
        assert np.all(res.prices.values >= lo - 1e-12)
        assert np.all(res.prices.values <= hi + 1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
