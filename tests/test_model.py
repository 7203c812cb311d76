import dataclasses
import math

import numpy as np
import pytest

from mcsgame.model import (
    LinearDemand,
    MuProfile,
    Scenario,
    UniformDemand,
    mu_own_profit,
    mu_payoff,
    sp_payoff,
)
from oracles import (
    dist_cdf,
    dist_pdf,
    dist_pdf_slope,
    dist_quantile,
    expected_min,
    mu_payoff_oracle,
)


# ---------------------------------------------------------------------------
# aggregate contribution and SP utility, read through the payoff at zero
# prices: utility_scale * ln(1 + sum_n ln(1 + x_n))


def _sp_utility(x, utility_scale):
    return sp_payoff(x, [0.0] * len(x), utility_scale)


def test_aggregate_contribution_zero_allocations():
    # an index of 1 is a utility of exactly 0
    assert _sp_utility([0.0, 0.0, 0.0], 1.0) == 0.0


def test_aggregate_contribution_single_user():
    assert math.exp(_sp_utility([math.e - 1.0], 1.0)) == pytest.approx(2.0, abs=1e-12)


def test_aggregate_contribution_two_users():
    want = 1.0 + 2.0 * math.log(2.0)
    assert math.exp(_sp_utility([1.0, 1.0], 1.0)) == pytest.approx(want, abs=1e-12)


def test_aggregate_contribution_rejects_negative():
    with pytest.raises(ValueError):
        _sp_utility([1.0, -0.5], 50.0)


def test_sp_utility_zero():
    assert _sp_utility([0.0] * 5, 50.0) == 0.0


def test_sp_utility_single_user():
    assert _sp_utility([math.e - 1.0], 50.0) == pytest.approx(50.0 * math.log(2.0), abs=1e-10)


def test_sp_utility_full_allocation_high_precision():
    # 50*ln(1+5*ln(21)) against 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    want = float(50 * mpmath.log(1 + 5 * mpmath.log(21)))
    assert _sp_utility([20.0] * 5, 50.0) == pytest.approx(want, abs=1e-12)


def test_sp_utility_rejects_bad_scale():
    with pytest.raises(ValueError):
        _sp_utility([1.0], 0.0)


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


# ---------------------------------------------------------------------------
# demand distributions


# both laws on a support from 0 and on one that starts above 0
LAWS = [
    UniformDemand(0.0, 25.0),
    LinearDemand(0.0, 25.0),
    UniformDemand(4.0, 18.0),
    LinearDemand(4.0, 18.0),
]


def _probe_points(demand):
    """The support's ends, interior points and points on either side of it."""
    lo, hi = demand.lo, demand.hi
    inside = np.linspace(lo, hi, 11)
    below = [lo - 1.0, np.nextafter(lo, -np.inf)]
    above = [np.nextafter(hi, np.inf), hi + 1.0]
    return np.concatenate([below, inside, above])


@pytest.mark.parametrize("demand", LAWS)
def test_density_integrates_to_one(demand):
    z = np.linspace(demand.lo, demand.hi, 200001)
    f = np.array([demand.pdf(v) for v in z])
    assert np.trapezoid(f, z) == pytest.approx(1.0, abs=1e-6)
    for v in _probe_points(demand):
        want = float(dist_pdf(demand.kind, demand.lo, demand.hi, v))
        assert demand.pdf(float(v)) == pytest.approx(want, rel=1e-14, abs=1e-15)
    # the density is affine on the support, with the oracle's slope
    rise = demand.pdf(demand.hi) - demand.pdf(demand.lo)
    assert rise / (demand.hi - demand.lo) == pytest.approx(
        dist_pdf_slope(demand.kind, demand.lo, demand.hi), rel=1e-14, abs=0.0
    )


@pytest.mark.parametrize("demand", LAWS)
def test_quantile_cdf_roundtrip(demand):
    rng = np.random.Generator(np.random.PCG64(5))
    for q in np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=1000)]):
        z = demand.quantile(float(q))
        assert demand.lo <= z <= demand.hi
        want = float(dist_quantile(demand.kind, demand.lo, demand.hi, q))
        assert z == pytest.approx(want, rel=1e-14, abs=1e-14)
        assert demand.cdf(z) == pytest.approx(float(q), abs=1e-9)
    assert demand.quantile(0.0) == demand.lo and demand.quantile(1.0) == demand.hi
    for q in (-1e-12, 1.0 + 1e-12):
        with pytest.raises(ValueError):
            demand.quantile(q)


@pytest.mark.parametrize("demand", LAWS)
def test_cdf_monotone_and_bounded(demand):
    z = np.linspace(demand.lo - 1.0, demand.hi + 1.0, 501)
    c = np.array([demand.cdf(v) for v in z])
    assert np.all(np.diff(c) >= -1e-15)
    assert c[0] == 0.0 and c[-1] == 1.0
    for v in _probe_points(demand):
        want = float(dist_cdf(demand.kind, demand.lo, demand.hi, v))
        assert demand.cdf(float(v)) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("law", [UniformDemand, LinearDemand])
def test_quantile_stays_in_a_support_far_from_zero(law):
    # hi - (hi - lo) rounds to 0 here, below lo, where the density is 0
    d = law(1e-20, 1.0)
    assert d.quantile(0.0) == 1e-20
    assert d.pdf(d.quantile(0.0)) == d.tail_power


def test_uniform_pdf_values():
    d = UniformDemand(0.0, 25.0)
    assert d.pdf(10.0) == pytest.approx(0.04)
    assert d.pdf(-1.0) == 0.0
    assert d.pdf(20.0) == d.pdf(10.0)


def test_linear_demand_shape():
    d = LinearDemand(0.0, 25.0)
    # density decreases linearly to zero at the upper end
    assert d.pdf(0.0) == pytest.approx(2.0 / 25.0)
    assert d.pdf(25.0) == 0.0
    assert (d.pdf(20.0) - d.pdf(10.0)) / 10.0 == pytest.approx(-2.0 / 625.0)
    assert d.quantile(1.0) == pytest.approx(25.0)
    assert d.quantile(0.75) == pytest.approx(25.0 - 25.0 * 0.5)


def test_demand_rejects_bad_support():
    with pytest.raises(ValueError):
        UniformDemand(5.0, 5.0)
    with pytest.raises(ValueError):
        UniformDemand(-1.0, 25.0)


@pytest.mark.parametrize("law", [UniformDemand, LinearDemand])
def test_demand_rejects_a_support_whose_squared_width_underflows(law):
    # the density slope divides by (hi - lo)**2, which is 0 below ~1.5e-154
    for lo, hi in ((0.0, 1e-300), (0.0, 1e-160), (1e-200, 2e-200)):
        with pytest.raises(ValueError, match="width"):
            law(lo, hi)
    narrowest = law(0.0, 1.5e-154)
    assert narrowest.pdf(0.0) == pytest.approx(narrowest.tail_power / 1.5e-154)


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
    d = example_mu.demand
    # inverse transform through the oracle's own quantile
    draws = dist_quantile(d.kind, d.lo, d.hi, rng.uniform(0.0, 1.0, size=1_000_000))
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
    # both laws: the density is 1 / w (uniform) or 2 (hi - z) / w**2 (linear);
    # r just above lo is where 1 - t**(k + 1) cancels if formed directly
    mpmath = pytest.importorskip("mpmath")
    for d in LAWS:
        lo, hi = d.lo, d.hi
        near_lo = [lo + 1e-6 * (hi - lo), lo + 1e-9 * (hi - lo)]
        for r in (0.0, lo, *near_lo, 0.5 * (lo + hi), 12.5, hi, 27.5):
            # split at the kink of min(z, r) when it lies inside the support
            nodes = [lo, r, hi] if lo < r < hi else [lo, hi]
            with mpmath.workdps(40):
                w = mpmath.mpf(hi) - lo
                if d.kind == "uniform":
                    want = mpmath.quad(lambda z: min(z, r) / w, nodes)
                else:
                    want = mpmath.quad(lambda z: min(z, r) * 2 * (hi - z) / w**2, nodes)
            assert abs(d.expected_min(r) - float(want)) <= 1e-15 * abs(float(want))


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


@pytest.mark.parametrize("demand", LAWS)
@pytest.mark.parametrize("capacity", [3.0, 10.0, 20.0, 30.0])
def test_mu_profile_caches_its_constants(demand, capacity):
    mu = MuProfile(capacity, 0.9, 0.2, demand)
    margin = mu.own_value - mu.unit_cost
    full = margin * demand.expected_min(capacity)
    assert mu.margin == margin
    assert mu.price_threshold == mu.unit_cost + margin * (1.0 - demand.cdf(capacity))
    assert mu_own_profit(mu, capacity) == full
    for x in (0.0, 0.4 * capacity, capacity):
        kept = margin * demand.expected_min(capacity - x)
        assert mu_payoff(mu, x, 0.55) == kept - full - mu.unit_cost * x + 0.55 * x


def test_scenario_validation(example_mu):
    with pytest.raises(ValueError):
        Scenario(0.0, (example_mu,))
    with pytest.raises(ValueError):
        Scenario(50.0, ())


def test_scenario_vector_accessors(five_mu_scenario):
    sc = five_mu_scenario
    assert sc.n == 5
    assert sc.capacity.shape == (5,)
    assert np.all(sc.own_value > sc.unit_cost)


def _profile_numbers(mu):
    """Each Scenario column's entry for one user, from the profile itself."""
    return {
        "capacity": mu.capacity, "own_value": mu.own_value, "unit_cost": mu.unit_cost,
        "demand_lo": mu.demand.lo, "demand_hi": mu.demand.hi,
        "tail_power": mu.demand.tail_power, "margin": mu.own_value - mu.unit_cost,
        "price_threshold": mu.price_threshold, "full_profit": mu_own_profit(mu, mu.capacity),
    }


def test_scenario_columns_are_the_profiles_numbers_read_only():
    """Every column holds each profile's number bit for bit, is read-only, and follows the users."""
    base = Scenario(50.0, (
        MuProfile(20.0, 0.9, 0.2, UniformDemand(0.0, 25.0)),
        MuProfile(30.0, 0.6, 0.0, LinearDemand(4.0, 25.0)),
        MuProfile(5.0, 0.95, 0.05, UniformDemand(1.0, 7.5)),
    ))
    moved = Scenario(50.0, tuple(dataclasses.replace(mu, demand=LinearDemand(2.0, 40.0))
                                 for mu in base.mus))
    rescaled = Scenario(7.0, base.mus)
    assert set(Scenario.COLUMNS) == set(_profile_numbers(base.mus[0]))
    for sc in (base, moved, rescaled):
        for name in Scenario.COLUMNS:
            col = getattr(sc, name)
            assert type(col) is np.ndarray and col.dtype == np.float64
            assert col.shape == (sc.n,) and col.flags.c_contiguous
            want = np.array([_profile_numbers(mu)[name] for mu in sc.mus])
            assert np.array_equal(col.view(np.uint64), want.view(np.uint64)), name
            with pytest.raises(ValueError):
                col[0] = 1.0
            with pytest.raises(ValueError):
                col.flags.writeable = True
    # a new demand law moves its columns; a new utility scale moves none
    for name in ("demand_lo", "demand_hi", "tail_power", "price_threshold", "full_profit"):
        assert not np.array_equal(getattr(moved, name), getattr(base, name)), name
    for name in Scenario.COLUMNS:
        assert np.array_equal(getattr(rescaled, name), getattr(base, name))


def test_profiles_are_immutable(example_mu):
    with pytest.raises(dataclasses.FrozenInstanceError):
        example_mu.capacity = 5.0
