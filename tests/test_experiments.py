"""Tests for scenario generation, baseline policies and sweeps."""

import dataclasses

import numpy as np
import pytest

from conftest import make_scenario
from mcsgame.dynamics import EnvConfig
from mcsgame.experiments import (
    SWEEP_AXES,
    ScenarioSpec,
    generate_scenario,
    play_constant,
    play_greedy,
    play_random,
    run_sweep,
)
from mcsgame.follower import price_threshold
from mcsgame.leader import compute_se
from mcsgame.model import LinearDemand, UniformDemand


# ---------------------------------------------------------------------------
# scenario generation


def test_default_spec_shape():
    scen = generate_scenario(ScenarioSpec(), seed=42)
    assert scen.n == 5
    assert scen.utility_scale == 50.0
    for mu in scen.mus:
        assert mu.capacity == 20.0
        assert isinstance(mu.demand, UniformDemand)
        assert (mu.demand.lo, mu.demand.hi) == (0.0, 25.0)
        assert 0.0 <= mu.unit_cost < mu.own_value <= 1.0


def test_generation_deterministic_in_seed():
    a = generate_scenario(ScenarioSpec(), seed=7)
    b = generate_scenario(ScenarioSpec(), seed=7)
    c = generate_scenario(ScenarioSpec(), seed=8)
    assert [m.own_value for m in a.mus] == [m.own_value for m in b.mus]
    assert [m.unit_cost for m in a.mus] == [m.unit_cost for m in b.mus]
    assert [m.own_value for m in a.mus] != [m.own_value for m in c.mus]


def test_generation_matches_reference_recipe():
    # the conftest helper must be the same draw, or tuning results drift
    for seed in (7, 42, 123):
        spec_scen = generate_scenario(ScenarioSpec(), seed=seed)
        ref = make_scenario(seed)
        assert [m.own_value for m in spec_scen.mus] == [m.own_value for m in ref.mus]
        assert [m.unit_cost for m in spec_scen.mus] == [m.unit_cost for m in ref.mus]


def test_degenerate_ranges_pin_parameters():
    spec = dataclasses.replace(ScenarioSpec(), unit_cost_range=(0.0, 0.0))
    scen = generate_scenario(spec, seed=3)
    assert all(mu.unit_cost == 0.0 for mu in scen.mus)

    spec = dataclasses.replace(ScenarioSpec(), own_value_range=(1.0, 1.0))
    scen = generate_scenario(spec, seed=3)
    assert all(mu.own_value == 1.0 for mu in scen.mus)


def test_linear_demand_spec():
    spec = dataclasses.replace(ScenarioSpec(), demand_kind="linear")
    scen = generate_scenario(spec, seed=1)
    assert all(isinstance(mu.demand, LinearDemand) for mu in scen.mus)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(n_mus=0)
    with pytest.raises(ValueError):
        ScenarioSpec(demand_kind="bimodal")
    with pytest.raises(ValueError):
        ScenarioSpec(unit_cost_range=(0.5, 0.2))
    with pytest.raises(ValueError):
        ScenarioSpec(own_value_range=(-0.1, 1.0))
    with pytest.raises(ValueError):
        # no draw can satisfy own_value > unit_cost
        ScenarioSpec(own_value_range=(0.0, 0.0), unit_cost_range=(0.0, 1.0))


def test_rejection_exhaustion_raises():
    # legal ranges, but the acceptance event has vanishing probability
    spec = ScenarioSpec(unit_cost_range=(0.3999999, 1.0), own_value_range=(0.0, 0.4))
    with pytest.raises(ValueError, match="could not draw"):
        generate_scenario(spec, seed=0)


# ---------------------------------------------------------------------------
# baselines


def test_constant_policy_at_equilibrium_reproduces_payoff():
    scen = make_scenario(7)
    se = compute_se(scen)
    env = EnvConfig()
    res = play_constant(scen, env, se.prices.values, steps=25, seed=0, name="se")
    assert res.name == "se"
    assert res.steps == 25
    assert res.mean_sp_payoff == pytest.approx(se.sp_payoff, abs=1e-9)
    assert res.mean_reward == pytest.approx(env.reward_scale * se.sp_payoff, abs=1e-9)
    assert np.allclose(res.mean_mu_payoffs, se.mu_payoffs, atol=1e-9)


def test_greedy_is_constant_cap():
    scen = make_scenario(7)
    env = EnvConfig()
    greedy = play_greedy(scen, env, steps=10, seed=0)
    manual = play_constant(scen, env, np.full(scen.n, env.p_max), 10, 0, "greedy")
    assert greedy.name == "greedy"
    assert greedy.mean_sp_payoff == manual.mean_sp_payoff
    assert np.array_equal(greedy.mean_mu_payoffs, manual.mean_mu_payoffs)


def test_random_baseline_deterministic_and_seed_sensitive():
    scen = make_scenario(7)
    env = EnvConfig()
    a = play_random(scen, env, steps=40, seed=5)
    b = play_random(scen, env, steps=40, seed=5)
    c = play_random(scen, env, steps=40, seed=6)
    assert a.name == "random"
    assert a.mean_sp_payoff == b.mean_sp_payoff
    assert a.mean_sp_payoff != c.mean_sp_payoff
    assert np.isfinite(a.mean_sp_payoff)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rejects_bad_axis_and_short_values():
    with pytest.raises(ValueError):
        run_sweep(ScenarioSpec(), "price", [1.0, 2.0], seed=0)
    with pytest.raises(ValueError):
        run_sweep(ScenarioSpec(), "delta", [1.0], seed=0)


def test_delta_sweep_builds_one_joint_scenario():
    spec = dataclasses.replace(ScenarioSpec(), unit_cost_range=(0.0, 0.0))
    values = [0.2, 0.4, 0.6, 0.8, 1.0]
    res = run_sweep(spec, "delta", values, seed=0)
    assert res.axis == "delta"
    assert res.converged
    assert len(res.summaries) == 1 and res.summaries[0].label == "joint"
    assert [p.sweep_value for p in res.points] == values
    for p in res.points:
        assert p.own_value == p.sweep_value
        assert p.unit_cost == 0.0
        assert p.capacity == spec.capacity
    # users who value their own data more sell less of it
    xs = [p.x_star for p in res.points]
    assert all(b <= a + 1e-9 for a, b in zip(xs, xs[1:]))


def test_delta_sweep_rejects_values_at_or_below_cost():
    spec = dataclasses.replace(ScenarioSpec(), unit_cost_range=(0.1, 0.1))
    with pytest.raises(ValueError):
        run_sweep(spec, "delta", [0.1, 0.5], seed=0)


def test_cost_sweep_pins_value_and_orders_prices():
    spec = dataclasses.replace(ScenarioSpec(), own_value_range=(1.0, 1.0))
    values = [0.0, 0.2, 0.4, 0.6]
    res = run_sweep(spec, "cost", values, seed=0)
    assert res.converged
    assert [p.unit_cost for p in res.points] == values
    assert all(p.own_value == 1.0 for p in res.points)
    ps = [p.p_star for p in res.points]
    assert all(b >= a - 1e-9 for a, b in zip(ps, ps[1:]))


def test_cost_sweep_rejects_values_at_or_above_value():
    spec = dataclasses.replace(ScenarioSpec(), own_value_range=(0.5, 0.5))
    with pytest.raises(ValueError):
        run_sweep(spec, "cost", [0.0, 0.5], seed=0)


def test_demand_upper_sweep_resamples_nothing():
    spec = dataclasses.replace(ScenarioSpec(), utility_scale=30.0)
    values = [20.0, 25.0, 30.0]
    res = run_sweep(spec, "demand_upper", values, seed=11)
    assert res.converged
    assert len(res.summaries) == 3
    assert [s.label for s in res.summaries] == ["20", "25", "30"]
    assert len(res.points) == 3 * spec.n_mus
    blocks = [res.points[i * spec.n_mus : (i + 1) * spec.n_mus] for i in range(3)]
    for v, block in zip(values, blocks):
        assert all(p.sweep_value == v and p.demand_hi == v for p in block)
    # the population itself is drawn once and shared across blocks
    for block in blocks[1:]:
        for p0, p in zip(blocks[0], block):
            assert p.own_value == p0.own_value
            assert p.unit_cost == p0.unit_cost


def test_lambda_sweep_rescales_utility_only():
    values = [20.0, 50.0]
    res = run_sweep(ScenarioSpec(), "lambda", values, seed=11)
    assert res.converged
    assert [s.label for s in res.summaries] == ["20", "50"]
    n = ScenarioSpec().n_mus
    blocks = [res.points[:n], res.points[n:]]
    for v, block in zip(values, blocks):
        assert all(p.utility_scale == v for p in block)
    for p0, p in zip(blocks[0], blocks[1]):
        assert p.own_value == p0.own_value
        assert p.demand_hi == p0.demand_hi
        # a more utility-hungry platform never pays less
        assert p.p_star >= p0.p_star - 1e-9


def test_sweep_points_carry_thresholds():
    from mcsgame.model import MuProfile

    spec = dataclasses.replace(ScenarioSpec(), unit_cost_range=(0.0, 0.0))
    res = run_sweep(spec, "delta", [0.5, 1.0], seed=0)
    # rows must reproduce the threshold implied by their own economics
    for p in res.points:
        mu = MuProfile(p.capacity, p.own_value, p.unit_cost, UniformDemand(p.demand_lo, p.demand_hi))
        assert p.price_threshold == pytest.approx(price_threshold(mu), abs=1e-12)


def test_sweep_axes_constant():
    assert SWEEP_AXES == ("delta", "cost", "demand_upper", "lambda")
