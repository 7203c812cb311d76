import math
from dataclasses import replace

import numpy as np
import pytest

from mcsgame.experiments import ScenarioSpec, generate_scenario
from mcsgame.follower import Region, best_response
from mcsgame.leader import (
    _BOX_SLACK,
    SolverConfig,
    compute_se,
    price_box,
    sp_payoff_gradient,
)
from mcsgame.model import (
    LinearDemand,
    MuProfile,
    Scenario,
    UniformDemand,
    mu_payoff,
    sp_payoff,
)
from conftest import assert_concave_at, make_scenario
from oracles import leader_grid_best_uniform_n1, mu_payoff_oracle


def _perturbed_payoff(scenario, p):
    allocs = np.array([best_response(mu, float(v)).allocation for mu, v in zip(scenario.mus, p)])
    return sp_payoff(allocs, p, scenario.utility_scale)


# ---------------------------------------------------------------------------
# gradient and concavity


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
    # the Hessian as central differences of the gradient compute_se
    # certifies with.  Uniform demand: anywhere inside the box.  Linear
    # demand: inside the part of the box below the equilibrium prices,
    # where every price is at most its user's marginal utility (see the
    # next test for why not beyond)
    rng = np.random.Generator(np.random.PCG64(53))
    for law in (UniformDemand, LinearDemand):
        for seed in (1, 4, 8):
            base = make_scenario(seed)
            scenario = Scenario(50.0, tuple(replace(mu, demand=law(0.0, 25.0))
                                            for mu in base.mus))
            lo, hi = price_box(scenario)
            top = hi if law is UniformDemand else compute_se(scenario).prices
            for _ in range(20):
                assert_concave_at(scenario, lo + (top - lo) * rng.uniform(0.05, 0.95, scenario.n))


def test_linear_demand_payoff_is_convex_in_price_above_marginal_utility():
    # One linear user above its equilibrium price 0.5234: the price 0.568
    # exceeds the marginal utility g / (1 + x) by 0.50, and the
    # response's curvature then outweighs the other terms of U''(p).
    # So price-space concavity is a uniform-demand property; linear
    # demand is concave in allocation space instead.
    scenario = Scenario(1.0, (MuProfile(20.0, 1.0, 0.5, LinearDemand(0.0, 25.0)),))
    p, h = np.array([0.568]), 1e-4
    second = (_perturbed_payoff(scenario, p + h) - 2.0 * _perturbed_payoff(scenario, p)
              + _perturbed_payoff(scenario, p - h)) / (h * h)
    assert second == pytest.approx(24.0, rel=0.01)
    assert compute_se(scenario).prices[0] == pytest.approx(0.5234, abs=1e-4)


@pytest.mark.parametrize("face", ["lo", "hi"])
def test_gradient_box_slack_accepts_half_and_rejects_twice(five_mu_scenario, face):
    # a price within _BOX_SLACK of a face is that face; one twice as far
    # out is outside the box
    sc = five_mu_scenario
    lo, hi = price_box(sc)
    at, outward = (lo, -1.0) if face == "lo" else (hi, 1.0)
    want = sp_payoff_gradient(sc, at)
    for i in range(sc.n):
        p = at.copy()
        p[i] += outward * 0.5 * _BOX_SLACK
        assert p[i] != at[i]
        assert sp_payoff_gradient(sc, p).tobytes() == want.tobytes()
        p[i] = at[i] + outward * 2.0 * _BOX_SLACK
        with pytest.raises(ValueError, match="outside"):
            sp_payoff_gradient(sc, p)


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
    assert res.prices[0] == 0.5
    assert res.allocations[0] == 5.0


def test_gradient_at_the_float_range_corner_certifies_as_compute_se_does():
    # the payoff gradient overflows to a signed infinity here, which the
    # box projection clips, so the public formula needs no warning either
    spec = ScenarioSpec(capacity=1e-300, demand_hi=1e300, utility_scale=1e300)
    scenario = generate_scenario(spec, 0)
    res = compute_se(scenario)
    grad = sp_payoff_gradient(scenario, res.prices)
    lo, hi = price_box(scenario)
    assert res.grad_residual == 0.0 and res.converged
    assert float(np.max(np.abs(res.prices - np.clip(res.prices + grad, lo, hi)))) == 0.0


def test_equilibrium_arrays_are_read_only(five_mu_scenario):
    res = compute_se(five_mu_scenario)
    for arr in (res.prices, res.allocations, res.mu_payoffs, res.regions):
        assert type(arr) is np.ndarray
        assert arr.dtype == np.float64 or arr is res.regions and arr.dtype.kind == "U"
        assert arr.shape == (five_mu_scenario.n,)
        with pytest.raises(ValueError):
            arr[0] = arr[1]


def test_region_is_the_face_of_the_allocation_box():
    # utility scale 4, demand on [4, 25]: the allocation box is
    # [max(cap - 25, 0), cap - 4]; the third user's thin margin keeps it
    # at its threshold, the fourth (capacity past the support) at x = 5,
    # and the last one's low own value puts it at capacity
    mus = (
        MuProfile(20.0, 0.6, 0.1, LinearDemand(4.0, 25.0)),
        MuProfile(20.0, 0.6, 0.1, UniformDemand(4.0, 25.0)),
        MuProfile(20.0, 1.0, 0.95, UniformDemand(4.0, 25.0)),
        MuProfile(30.0, 1.0, 0.97, LinearDemand(4.0, 25.0)),
        MuProfile(20.0, 0.01, 0.0, UniformDemand(4.0, 25.0)),
    )
    res = compute_se(Scenario(4.0, mus))
    assert res.regions.tolist() == [
        "interior", "interior", "below_threshold", "below_threshold", "at_capacity",
    ]
    assert res.allocations.tolist()[2:] == [0.0, 5.0, 16.0]
    # on every face and law, the vectorized payoff is model.mu_payoff per user, bit for bit
    want = np.array([mu_payoff(mu, x, p) for mu, x, p in
                     zip(mus, res.allocations.tolist(), res.prices.tolist())])
    assert np.array_equal(res.mu_payoffs.view(np.uint64), want.view(np.uint64))
    # 200 users at seed 3: the solver holds 48 (uniform) and 54 (linear) at
    # x = 0, priced at their threshold, where a scalar re-solve of the
    # response returns rounding noise instead of 0
    for law, held in (("uniform", 48), ("linear", 54)):
        scenario = generate_scenario(ScenarioSpec(n_mus=200, demand_kind=law), 3)
        res = compute_se(scenario)
        at_threshold = res.prices == price_box(scenario)[0]
        assert int(at_threshold.sum()) == held
        assert np.array_equal(at_threshold, res.regions == Region.BELOW_THRESHOLD.value)
        assert np.array_equal(at_threshold, res.allocations == 0.0)


def test_gradient_rejects_out_of_box(five_mu_scenario):
    lo, hi = price_box(five_mu_scenario)
    with pytest.raises(ValueError):
        sp_payoff_gradient(five_mu_scenario, hi + 0.5)


def test_gradient_rejects_a_price_vector_of_another_length(five_mu_scenario):
    lo, _ = price_box(five_mu_scenario)
    with pytest.raises(ValueError, match="must have 5 entries, got 4"):
        sp_payoff_gradient(five_mu_scenario, lo[:-1])


# ---------------------------------------------------------------------------
# solver against the brute-force oracle


def test_single_user_matches_grid_search(single_mu_scenario):
    res = compute_se(single_mu_scenario)
    assert res.converged
    p_grid, sp_grid, _ = leader_grid_best_uniform_n1(1.0, 0.0, 0.0, 25.0, 20.0, 50.0, step=1e-4)
    assert abs(float(res.prices[0]) - p_grid) <= 1e-3
    assert abs(res.sp_payoff - sp_grid) <= 1e-4


@pytest.mark.parametrize("kind", ["uniform", "linear"])
def test_thousand_user_market_converges(kind):
    spec = ScenarioSpec(
        n_mus=1000, demand_kind=kind, unit_cost_range=(0.0, 0.45), own_value_range=(0.55, 1.0)
    )
    scenario = generate_scenario(spec, seed=0)
    res = compute_se(scenario)
    assert res.converged
    p = res.prices
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
        prices.append(res.prices)
    assert payoffs[0] < payoffs[1] < payoffs[2]
    # a more valuable aggregate makes every price weakly rise
    assert np.all(prices[1] >= prices[0] - 1e-7)
    assert np.all(prices[2] >= prices[1] - 1e-7)


def test_optimal_price_marginal_utility_bound():
    # p*_n <= g'(b) / (1 + x*_n) at the optimum
    for seed in (6, 18):
        scenario = make_scenario(seed)
        res = compute_se(scenario)
        b = 1.0 + np.sum(np.log1p(res.allocations))
        bound = (scenario.utility_scale / b) / (1.0 + res.allocations)
        assert np.all(res.prices <= bound + 1e-8)


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
    thresholds = np.array([mu.price_threshold for mu in scenario.mus])
    assert np.allclose(res.prices, thresholds, atol=1e-9)
    assert np.allclose(res.allocations, 0.0, atol=1e-9)


def test_mu_payoffs_nonnegative_at_se():
    for seed in (7, 42, 77):
        res = compute_se(make_scenario(seed))
        assert np.all(res.mu_payoffs >= -1e-12)


def test_non_convergence_reported():
    res = compute_se(make_scenario(3), SolverConfig(tol=1e-18))
    assert not res.converged
    assert res.iterations >= 2


# ---------------------------------------------------------------------------
# equilibrium stability (no profitable unilateral deviation)


def test_leader_deviations_do_not_gain():
    scenario = make_scenario(42)
    res = compute_se(scenario)
    lo, hi = price_box(scenario)
    base = res.sp_payoff
    p = res.prices.copy()
    for i in range(scenario.n):
        for delta in (-1e-2, 1e-2):
            q = p.copy()
            q[i] = float(np.clip(q[i] + delta, lo[i], hi[i]))
            assert _perturbed_payoff(scenario, q) <= base + 1e-9


def test_follower_deviations_do_not_gain():
    scenario = make_scenario(42)
    res = compute_se(scenario)
    for i, mu in enumerate(scenario.mus):
        price = float(res.prices[i])
        x_star = float(res.allocations[i])
        u_star = mu_payoff(mu, x_star, price)
        for delta in (-1e-2, 1e-2):
            x = float(np.clip(x_star + delta, 0.0, mu.capacity))
            assert mu_payoff(mu, x, price) <= u_star + 1e-9


def test_se_allocations_are_best_responses():
    scenario = make_scenario(42)
    res = compute_se(scenario)
    for i, mu in enumerate(scenario.mus):
        br = best_response(mu, float(res.prices[i]))
        assert br.allocation == pytest.approx(float(res.allocations[i]), abs=1e-9)


def test_se_beats_follower_grid(single_mu_scenario):
    res = compute_se(single_mu_scenario)
    price = float(res.prices[0])
    x_star = float(res.allocations[0])
    grid = np.linspace(0.0, 20.0, 2001)
    u_grid = mu_payoff_oracle("uniform", 0.0, 25.0, 20.0, 1.0, 0.0, grid, price)
    u_star = float(mu_payoff_oracle("uniform", 0.0, 25.0, 20.0, 1.0, 0.0, x_star, price))
    assert u_star >= float(np.max(u_grid)) - 1e-9


# ---------------------------------------------------------------------------
# box and reporting conventions


def test_price_box_bounds(five_mu_scenario):
    lo, hi = price_box(five_mu_scenario)
    thresholds = np.array([mu.price_threshold for mu in five_mu_scenario.mus])
    assert np.allclose(lo, thresholds)
    assert np.allclose(hi, five_mu_scenario.own_value)


def test_se_prices_stay_in_box():
    for seed in (2, 15):
        scenario = make_scenario(seed)
        res = compute_se(scenario)
        lo, hi = price_box(scenario)
        assert np.all(res.prices >= lo - 1e-12)
        assert np.all(res.prices <= hi + 1e-12)


def test_solver_config_validation():
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(tol=tol)
