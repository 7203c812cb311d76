import dataclasses
import math

import numpy as np
import pytest

from mcsgame.model import (
    AllocationProfile,
    LinearDemand,
    MuProfile,
    PriceProfile,
    Scenario,
    UniformDemand,
    aggregate_contribution,
    mu_own_profit,
    mu_payoff,
    sp_payoff,
    sp_utility,
)
from oracles import expected_min, mu_payoff_oracle


# ---------------------------------------------------------------------------
# aggregate contribution and SP utility


def test_aggregate_contribution_zero_allocations():
    assert aggregate_contribution([0.0, 0.0, 0.0]) == 1.0


def test_aggregate_contribution_single_user():
    assert aggregate_contribution([math.e - 1.0]) == pytest.approx(2.0, abs=1e-12)


def test_aggregate_contribution_two_users():
    assert aggregate_contribution([1.0, 1.0]) == pytest.approx(1.0 + 2.0 * math.log(2.0), abs=1e-12)


def test_aggregate_contribution_rejects_negative():
    with pytest.raises(ValueError):
        aggregate_contribution([1.0, -0.5])


def test_sp_utility_zero():
    assert sp_utility([0.0] * 5, 50.0) == 0.0


def test_sp_utility_single_user():
    assert sp_utility([math.e - 1.0], 50.0) == pytest.approx(50.0 * math.log(2.0), abs=1e-10)


def test_sp_utility_full_allocation_high_precision():
    # 50*ln(1+5*ln(21)) against 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    want = float(50 * mpmath.log(1 + 5 * mpmath.log(21)))
    assert sp_utility([20.0] * 5, 50.0) == pytest.approx(want, abs=1e-12)


def test_sp_utility_rejects_bad_scale():
    with pytest.raises(ValueError):
        sp_utility([1.0], 0.0)


def test_sp_payoff_zero_allocation():
    assert sp_payoff([0.0, 0.0], [0.3, 0.9], 50.0) == 0.0


def test_sp_payoff_single_user():
    want = 50.0 * math.log(2.0) - 0.5 * (math.e - 1.0)
    assert sp_payoff([math.e - 1.0], [0.5], 50.0) == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(33.798, abs=1e-3)


def test_sp_payoff_two_users():
    want = 50.0 * math.log(1.0 + 2.0 * math.log(11.0)) - 20.0
    assert sp_payoff([10.0, 10.0], [1.0, 1.0], 50.0) == pytest.approx(want, abs=1e-10)


def test_sp_payoff_length_mismatch():
    with pytest.raises(ValueError):
        sp_payoff([1.0, 2.0], [0.5], 50.0)


def test_sp_payoff_accepts_profile_wrappers():
    x = AllocationProfile([1.0, 2.0])
    p = PriceProfile([0.1, 0.2])
    assert sp_payoff(x, p, 50.0) == pytest.approx(sp_payoff([1.0, 2.0], [0.1, 0.2], 50.0))


# ---------------------------------------------------------------------------
# demand distributions


@pytest.mark.parametrize("demand", [UniformDemand(0.0, 25.0), LinearDemand(0.0, 25.0)])
def test_density_integrates_to_one(demand):
    z = np.linspace(demand.lo, demand.hi, 200001)
    f = np.array([demand.pdf(v) for v in z])
    assert np.trapezoid(f, z) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("demand", [UniformDemand(0.0, 25.0), LinearDemand(0.0, 25.0)])
def test_quantile_cdf_roundtrip(demand):
    rng = np.random.Generator(np.random.PCG64(5))
    for q in rng.uniform(0.0, 1.0, size=1000):
        z = demand.quantile(float(q))
        assert demand.lo <= z <= demand.hi
        assert demand.cdf(z) == pytest.approx(float(q), abs=1e-9)


@pytest.mark.parametrize("demand", [UniformDemand(0.0, 25.0), LinearDemand(0.0, 25.0)])
def test_cdf_monotone_and_bounded(demand):
    z = np.linspace(demand.lo - 1.0, demand.hi + 1.0, 501)
    c = np.array([demand.cdf(v) for v in z])
    assert np.all(np.diff(c) >= -1e-15)
    assert c[0] == 0.0 and c[-1] == 1.0


def test_uniform_pdf_values():
    d = UniformDemand(0.0, 25.0)
    assert d.pdf(10.0) == pytest.approx(0.04)
    assert d.pdf(-1.0) == 0.0
    assert d.pdf_slope(10.0) == 0.0


def test_linear_demand_shape():
    d = LinearDemand(0.0, 25.0)
    # density decreases linearly to zero at the upper end
    assert d.pdf(0.0) == pytest.approx(2.0 / 25.0)
    assert d.pdf(25.0) == 0.0
    assert d.pdf_slope(10.0) == pytest.approx(-2.0 / 625.0)
    assert d.quantile(1.0) == pytest.approx(25.0)
    assert d.quantile(0.75) == pytest.approx(25.0 - 25.0 * 0.5)


@pytest.mark.parametrize("demand", [UniformDemand(0.0, 25.0), LinearDemand(0.0, 25.0)])
def test_sampler_matches_cdf(demand):
    rng = np.random.Generator(np.random.PCG64(17))
    draws = demand.sample(rng, size=200000)
    assert np.all((draws >= demand.lo) & (draws <= demand.hi))
    for q in (0.25, 0.5, 0.9):
        z = demand.quantile(q)
        # binomial standard error at 2e5 samples is about 0.001
        assert np.mean(draws <= z) == pytest.approx(q, abs=0.005)


def test_demand_rejects_bad_support():
    with pytest.raises(ValueError):
        UniformDemand(5.0, 5.0)
    with pytest.raises(ValueError):
        UniformDemand(-1.0, 25.0)


def test_demand_admissibility_flags():
    assert UniformDemand(0.0, 25.0).admissible()
    assert LinearDemand(0.0, 25.0).admissible()


# ---------------------------------------------------------------------------
# own-demand profit


def test_own_profit_zero_remaining(example_mu):
    assert mu_own_profit(example_mu, 0.0) == 0.0


def test_own_profit_full_capacity(example_mu):
    # E[min(xi, 20)] for uniform[0,25] is 8 + 4 = 12
    assert mu_own_profit(example_mu, 20.0) == pytest.approx(12.0, abs=1e-12)


def test_own_profit_half_capacity(example_mu):
    assert mu_own_profit(example_mu, 10.0) == pytest.approx(8.0, abs=1e-12)


def test_own_profit_monte_carlo(example_mu):
    rng = np.random.Generator(np.random.PCG64(23))
    draws = example_mu.demand.sample(rng, size=1_000_000)
    served = np.minimum(draws, 20.0)
    se = np.std(served) / math.sqrt(draws.size)
    assert abs(np.mean(served) - mu_own_profit(example_mu, 20.0)) < max(3.0 * se, 1e-2)


def test_own_profit_scales_with_margin():
    d = UniformDemand(0.0, 25.0)
    narrow = MuProfile(20.0, 0.8, 0.3, d)
    assert mu_own_profit(narrow, 20.0) == pytest.approx(0.5 * 12.0, abs=1e-12)


def test_own_profit_quad_agrees_with_oracle():
    # remaining below, at, inside, at the top of and past the support
    for lo, hi in ((0.0, 25.0), (4.0, 18.0)):
        mu = MuProfile(30.0, 1.0, 0.0, LinearDemand(lo, hi))
        for remaining in (0.0, lo, 0.5 * (lo + hi), 12.5, hi, 27.5):
            want = float(expected_min("linear", lo, hi, remaining))
            assert mu_own_profit(mu, remaining) == pytest.approx(want, abs=1e-6)


def test_linear_expected_min_pinned_by_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for lo, hi in ((0.0, 25.0), (4.0, 18.0)):
        d = LinearDemand(lo, hi)
        for r in (0.0, lo, 0.5 * (lo + hi), 12.5, hi, 27.5):
            # split at the kink of min(z, r) when it lies inside the support
            nodes = [lo, r, hi] if lo < r < hi else [lo, hi]
            with mpmath.workdps(40):
                w = mpmath.mpf(hi) - lo
                want = mpmath.quad(lambda z: min(z, r) * 2 * (hi - z) / w**2, nodes)
            assert abs(d.expected_min(r) - float(want)) <= 1e-13


def test_own_profit_rejects_out_of_range(example_mu):
    with pytest.raises(ValueError):
        mu_own_profit(example_mu, -0.5)
    with pytest.raises(ValueError):
        mu_own_profit(example_mu, 20.5)


# ---------------------------------------------------------------------------
# MU payoff


def test_mu_payoff_zero_allocation(example_mu):
    for price in (0.0, 0.5, 2.0):
        assert mu_payoff(example_mu, 0.0, price) == 0.0


def test_mu_payoff_interior_example(example_mu):
    # 8 - 12 - 0 + 6
    assert mu_payoff(example_mu, 10.0, 0.6) == pytest.approx(2.0, abs=1e-12)


def test_mu_payoff_full_sale_example(example_mu):
    # 0 - 12 + 20
    assert mu_payoff(example_mu, 20.0, 1.0) == pytest.approx(8.0, abs=1e-12)


def test_mu_payoff_matches_oracle_with_costs():
    mu = MuProfile(20.0, 0.9, 0.25, UniformDemand(0.0, 25.0))
    xs = np.linspace(0.0, 20.0, 41)
    want = mu_payoff_oracle("uniform", 0.0, 25.0, 20.0, 0.9, 0.25, xs, 0.7)
    got = np.array([mu_payoff(mu, float(x), 0.7) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-9


def test_mu_payoff_concave_in_allocation(example_mu):
    xs = np.linspace(0.0, 20.0, 201)
    u = np.array([mu_payoff(example_mu, float(x), 0.6) for x in xs])
    second = u[2:] - 2.0 * u[1:-1] + u[:-2]
    assert np.all(second <= 1e-10)


def test_mu_payoff_rejects_out_of_range(example_mu):
    with pytest.raises(ValueError):
        mu_payoff(example_mu, -1.0, 0.5)
    with pytest.raises(ValueError):
        mu_payoff(example_mu, 21.0, 0.5)
    with pytest.raises(ValueError):
        mu_payoff(example_mu, 1.0, -0.1)


# ---------------------------------------------------------------------------
# profile containers and validation


def test_mu_profile_validation():
    d = UniformDemand(0.0, 25.0)
    with pytest.raises(ValueError):
        MuProfile(0.0, 1.0, 0.0, d)
    with pytest.raises(ValueError):
        MuProfile(20.0, 0.3, 0.3, d)
    with pytest.raises(ValueError):
        MuProfile(20.0, 0.2, 0.5, d)


def test_scenario_validation(example_mu):
    with pytest.raises(ValueError):
        Scenario(0.0, (example_mu,))
    with pytest.raises(ValueError):
        Scenario(50.0, ())


def test_scenario_vector_accessors(five_mu_scenario):
    sc = five_mu_scenario
    assert sc.n == 5
    assert sc.capacities().shape == (5,)
    assert np.all(sc.own_values() > sc.unit_costs())


def test_profiles_are_immutable(example_mu):
    p = PriceProfile([0.5, 0.6])
    with pytest.raises(ValueError):
        p.values[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        example_mu.capacity = 5.0


def test_profile_validation():
    with pytest.raises(ValueError):
        PriceProfile([])
    with pytest.raises(ValueError):
        PriceProfile([0.1, -0.2])
    with pytest.raises(ValueError):
        AllocationProfile([np.nan])


def test_allocation_feasibility(five_mu_scenario):
    ok = AllocationProfile([1.0] * 5)
    too_big = AllocationProfile([25.0] * 5)
    assert ok.feasible_for(five_mu_scenario)
    assert not too_big.feasible_for(five_mu_scenario)
