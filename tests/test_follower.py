import math

import numpy as np
import pytest

from mcsgame.follower import Region, best_response, foc_residual, price_threshold
from mcsgame.model import LinearDemand, MuProfile, UniformDemand
from oracles import follower_grid_best, mu_payoff_oracle, random_mu_params


# ---------------------------------------------------------------------------
# participation threshold


def test_threshold_example(example_mu):
    # F(20) = 0.8 under uniform[0,25], so threshold = 1 * 0.2
    assert price_threshold(example_mu) == pytest.approx(0.2, abs=1e-15)


def test_threshold_capacity_past_support():
    mu = MuProfile(30.0, 1.0, 0.4, UniformDemand(0.0, 25.0))
    assert price_threshold(mu) == pytest.approx(0.4, abs=1e-15)


def test_threshold_capacity_below_support():
    mu = MuProfile(5.0, 1.0, 0.3, UniformDemand(5.0, 25.0))
    assert price_threshold(mu) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# best response branches


def test_best_response_interior_example(example_mu):
    br = best_response(example_mu, 0.6)
    assert br.region is Region.INTERIOR
    # kept quantile at level 0.4 is 10, so 10 units are sold
    assert br.allocation == pytest.approx(10.0, abs=1e-12)
    assert br.slope == pytest.approx(25.0, abs=1e-9)


def test_best_response_below_threshold(example_mu):
    br = best_response(example_mu, 0.1)
    assert br.region is Region.BELOW_THRESHOLD
    assert br.allocation == 0.0
    assert br.slope == 0.0


def test_best_response_above_own_value(example_mu):
    br = best_response(example_mu, 1.5)
    assert br.region is Region.AT_CAPACITY
    assert br.allocation == 20.0
    assert br.slope == 0.0


def test_best_response_closed_boundaries(example_mu):
    lowest = best_response(example_mu, price_threshold(example_mu))
    assert lowest.region is Region.INTERIOR
    assert lowest.allocation == pytest.approx(0.0, abs=1e-12)
    highest = best_response(example_mu, 1.0)
    assert highest.region is Region.INTERIOR
    assert highest.allocation == pytest.approx(20.0, abs=1e-12)


def test_best_response_rejects_bad_price(example_mu):
    with pytest.raises(ValueError):
        best_response(example_mu, -0.1)
    with pytest.raises(ValueError):
        best_response(example_mu, float("nan"))


def test_best_response_vanishing_density_corner():
    # capacity covers the whole support, so the threshold price is the
    # unit cost and the kept quantile lands where the density is zero
    mu = MuProfile(25.0, 1.0, 0.0, LinearDemand(0.0, 25.0))
    assert price_threshold(mu) == pytest.approx(0.0, abs=1e-15)
    # the right-hand limit: nothing beyond capacity - hi is sold, and the
    # response leaves that face with unbounded slope
    for cap, sold in ((25.0, 0.0), (30.0, 5.0)):
        corner = best_response(MuProfile(cap, 1.0, 0.0, LinearDemand(0.0, 25.0)), 0.0)
        assert corner.region is Region.INTERIOR
        assert corner.allocation == sold
        assert corner.slope == math.inf
    br = best_response(mu, 1e-4)
    assert br.region is Region.INTERIOR
    assert br.allocation > 0.0


@pytest.mark.parametrize("law", [UniformDemand, LinearDemand])
def test_best_response_slope_is_infinite_when_density_times_margin_underflows(law):
    # a margin of 5e-324 times a density of 2/25 or less rounds to 0; at
    # price == own_value the user keeps the bottom of the support
    mu = MuProfile(20.0, 5e-324, 0.0, law(0.0, 25.0))
    br = best_response(mu, mu.own_value)
    assert br.region is Region.INTERIOR
    assert br.allocation == 20.0
    assert br.slope == math.inf


# ---------------------------------------------------------------------------
# agreement with the brute-force oracle


def test_best_response_matches_grid_oracle():
    rng = np.random.Generator(np.random.PCG64(31))
    n_grid = 10001
    for _ in range(25):
        kind, lo, hi, cap, value, cost = random_mu_params(rng)
        demand = UniformDemand(lo, hi) if kind == "uniform" else LinearDemand(lo, hi)
        mu = MuProfile(cap, value, cost, demand)
        for price in rng.uniform(0.0, value * 1.2, size=5):
            price = float(price)
            br = best_response(mu, price)
            x_grid, u_grid = follower_grid_best(kind, lo, hi, cap, value, cost, price, n_grid)
            step = cap / (n_grid - 1)
            assert abs(br.allocation - x_grid) <= 2.0 * step, (kind, value, cost, price)
            u_impl = float(
                mu_payoff_oracle(kind, lo, hi, cap, value, cost, br.allocation, price)
            )
            assert u_impl >= u_grid - 1e-6 * (1.0 + abs(u_grid))


def test_interior_foc_residual_vanishes():
    rng = np.random.Generator(np.random.PCG64(37))
    checked = 0
    while checked < 50:
        kind, lo, hi, cap, value, cost = random_mu_params(rng)
        demand = UniformDemand(lo, hi) if kind == "uniform" else LinearDemand(lo, hi)
        mu = MuProfile(cap, value, cost, demand)
        price = float(rng.uniform(price_threshold(mu), value))
        br = best_response(mu, price)
        if br.region is not Region.INTERIOR or br.allocation in (0.0, cap):
            continue
        assert abs(foc_residual(mu, br.allocation, price)) <= 1e-9
        checked += 1


# ---------------------------------------------------------------------------
# first-order condition values


def test_foc_examples(example_mu):
    assert foc_residual(example_mu, 10.0, 0.6) == pytest.approx(0.0, abs=1e-12)
    assert foc_residual(example_mu, 0.0, 0.2) == pytest.approx(0.0, abs=1e-12)
    assert foc_residual(example_mu, 0.0, 0.0) == pytest.approx(-0.2, abs=1e-12)


def test_foc_rejects_out_of_range(example_mu):
    with pytest.raises(ValueError):
        foc_residual(example_mu, -1.0, 0.5)


# ---------------------------------------------------------------------------
# price sensitivities


def test_slope_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(41))
    h = 1e-5
    for _ in range(20):
        kind, lo, hi, cap, value, cost = random_mu_params(rng)
        demand = UniformDemand(lo, hi) if kind == "uniform" else LinearDemand(lo, hi)
        mu = MuProfile(cap, value, cost, demand)
        thr = price_threshold(mu)
        price = float(rng.uniform(thr + 0.02, value - 0.02))
        if price <= thr + h or price >= value - h:
            continue
        br = best_response(mu, price)
        fd = (
            best_response(mu, price + h).allocation - best_response(mu, price - h).allocation
        ) / (2.0 * h)
        assert br.slope == pytest.approx(fd, rel=1e-4, abs=1e-6)


# ---------------------------------------------------------------------------
# continuity and monotonicity


def test_response_continuous_at_breakpoints(example_mu):
    eps = 1e-9
    thr = price_threshold(example_mu)
    below = best_response(example_mu, thr - eps).allocation
    above = best_response(example_mu, thr + eps).allocation
    assert abs(above - below) <= 1e-6
    under = best_response(example_mu, 1.0 - eps).allocation
    over = best_response(example_mu, 1.0 + eps).allocation
    assert abs(over - under) <= 1e-6


def test_response_monotone_in_price():
    rng = np.random.Generator(np.random.PCG64(43))
    for _ in range(10):
        kind, lo, hi, cap, value, cost = random_mu_params(rng)
        demand = UniformDemand(lo, hi) if kind == "uniform" else LinearDemand(lo, hi)
        mu = MuProfile(cap, value, cost, demand)
        prices = np.linspace(0.0, value * 1.1, 300)
        allocs = [best_response(mu, float(p)).allocation for p in prices]
        assert np.all(np.diff(allocs) >= -1e-12)
