"""Tests for scenario generation, baseline policies and sweeps."""

import dataclasses

import numpy as np
import pytest

from conftest import make_scenario
from mcsgame.dynamics import EnvConfig, env_reset, env_step, step_mean
from mcsgame.experiments import (
    SWEEP_AXES,
    ScenarioSpec,
    generate_scenario,
    play_constant,
    play_greedy,
    play_random,
    run_sweep,
)
from mcsgame.leader import compute_se
from mcsgame.model import LinearDemand, UniformDemand, mu_payoff, sp_payoff


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
    res = play_constant(scen, env, se.prices, steps=25, name="se")
    assert res.name == "se"
    assert res.steps == 25
    assert res.mean_sp_payoff == pytest.approx(se.sp_payoff, abs=1e-9)
    assert res.mean_reward == pytest.approx(env.reward_scale * se.sp_payoff, abs=1e-9)
    assert np.allclose(res.mean_mu_payoff, se.mu_payoffs, atol=1e-9)


def test_greedy_is_constant_cap():
    scen = make_scenario(7)
    env = EnvConfig()
    greedy = play_greedy(scen, env, steps=10)
    manual = play_constant(scen, env, np.full(scen.n, env.p_max), 10, "greedy")
    assert greedy.name == "greedy"
    assert greedy.mean_sp_payoff == manual.mean_sp_payoff
    assert np.array_equal(greedy.mean_mu_payoff, manual.mean_mu_payoff)


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


@pytest.mark.parametrize("steps", [1, 7, 1000])
def test_baselines_equal_their_step_by_step_rollouts(steps):
    # one env_step per step, scored by the public formulas; the random
    # prices are drawn after env_reset's window, one step's after another
    scen, env = make_scenario(7), EnvConfig(history_rounds=2)
    rng = np.random.Generator(np.random.PCG64(3))
    env_reset(scen, env, rng)
    for res, prices_for in (
        (play_greedy(scen, env, steps), lambda: np.full(scen.n, env.p_max)),
        (play_random(scen, env, steps, 3), lambda: rng.uniform(0.0, env.p_max, size=scen.n)),
    ):
        rows = [env_step(scen, env, prices_for()) for _ in range(steps)]
        sp = np.array([sp_payoff(x, p, scen.utility_scale) for p, x in rows])
        mu = np.array([[mu_payoff(m, xi, pi) for m, xi, pi in zip(scen.mus, x, p)]
                       for p, x in rows])
        assert res.steps == steps
        assert res.mean_sp_payoff == float(step_mean(sp))
        assert res.mean_reward == float(step_mean(env.reward_scale * sp))
        assert np.array_equal(res.mean_mu_payoff, step_mean(mu))


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
    users, summary = run_sweep(spec, "delta", values, seed=0)
    assert summary["converged"].all()
    assert summary["label"].tolist() == ["joint"]
    assert users["own_value"].tolist() == values
    assert (users["unit_cost"] == 0.0).all()
    assert (users["capacity"] == spec.capacity).all()
    # users who value their own data more sell less of it
    xs = users["x_star"]
    assert all(b <= a + 1e-9 for a, b in zip(xs, xs[1:]))


def test_delta_sweep_rejects_values_at_or_below_cost():
    spec = dataclasses.replace(ScenarioSpec(), unit_cost_range=(0.1, 0.1))
    with pytest.raises(ValueError):
        run_sweep(spec, "delta", [0.1, 0.5], seed=0)


def test_cost_sweep_pins_value_and_orders_prices():
    spec = dataclasses.replace(ScenarioSpec(), own_value_range=(1.0, 1.0))
    values = [0.0, 0.2, 0.4, 0.6]
    users, summary = run_sweep(spec, "cost", values, seed=0)
    assert summary["converged"].all()
    assert users["unit_cost"].tolist() == values
    assert (users["own_value"] == 1.0).all()
    ps = users["p_star"]
    assert all(b >= a - 1e-9 for a, b in zip(ps, ps[1:]))


def test_cost_sweep_rejects_values_at_or_above_value():
    spec = dataclasses.replace(ScenarioSpec(), own_value_range=(0.5, 0.5))
    with pytest.raises(ValueError):
        run_sweep(spec, "cost", [0.0, 0.5], seed=0)


def _blocks(users, markets):
    """The user table as one {column: array} block per market."""
    return [{name: a.reshape(markets, -1)[i] for name, a in users.items()} for i in range(markets)]


def test_demand_upper_sweep_resamples_nothing():
    spec = dataclasses.replace(ScenarioSpec(), utility_scale=30.0)
    values = [20.0, 25.0, 30.0]
    users, summary = run_sweep(spec, "demand_upper", values, seed=11)
    assert summary["converged"].all()
    assert len(summary["label"]) == 3
    assert summary["label"].tolist() == ["20", "25", "30"]
    assert len(users["mu_index"]) == 3 * spec.n_mus
    blocks = _blocks(users, 3)
    for v, block in zip(values, blocks):
        assert (block["demand_hi"] == v).all()
    # the population itself is drawn once and shared across blocks
    for block in blocks[1:]:
        assert (block["own_value"] == blocks[0]["own_value"]).all()
        assert (block["unit_cost"] == blocks[0]["unit_cost"]).all()


@pytest.mark.parametrize("axis, bad", [("demand_upper", 0.0), ("demand_upper", -1.0),
                                       ("lambda", 0.0), ("lambda", -1.0)])
def test_market_sweeps_reject_what_scenario_spec_rejects(axis, bad):
    # demand_upper must exceed demand_lo (0 here) and lambda be positive
    with pytest.raises(ValueError):
        run_sweep(ScenarioSpec(), axis, [25.0, bad], seed=0)


def test_lambda_sweep_rescales_utility_only():
    values = [20.0, 50.0]
    users, summary = run_sweep(ScenarioSpec(), "lambda", values, seed=11)
    assert summary["converged"].all()
    assert summary["label"].tolist() == ["20", "50"]
    blocks = _blocks(users, 2)
    for v, block in zip(values, blocks):
        assert (block["utility_scale"] == v).all()
    b0, b1 = blocks
    assert (b1["own_value"] == b0["own_value"]).all()
    assert (b1["demand_hi"] == b0["demand_hi"]).all()
    # a more utility-hungry platform never pays less
    assert (b1["p_star"] >= b0["p_star"] - 1e-9).all()


def test_sweep_labels_are_distinct_and_read_back_as_the_values():
    # %g prints both values as 20; the second keeps its repr
    values = [20.0, 20.0000001, 25.0, 1e-7]
    _, summary = run_sweep(ScenarioSpec(), "lambda", values, seed=0)
    labels = summary["label"].tolist()
    assert labels == ["20", "20.0000001", "25", "1e-07"]
    assert [float(label) for label in labels] == values


def test_sweep_points_carry_thresholds():
    from mcsgame.model import MuProfile

    spec = dataclasses.replace(ScenarioSpec(), unit_cost_range=(0.0, 0.0))
    users, _ = run_sweep(spec, "delta", [0.5, 1.0], seed=0)
    # rows must reproduce the threshold implied by their own economics
    for cap, value, cost, lo, hi, threshold in zip(
        *(users[c] for c in ("capacity", "own_value", "unit_cost", "demand_lo", "demand_hi",
                             "price_threshold"))
    ):
        mu = MuProfile(cap, value, cost, UniformDemand(lo, hi))
        assert threshold == pytest.approx(mu.price_threshold, abs=1e-12)


def test_sweep_axes_constant():
    assert SWEEP_AXES == ("delta", "cost", "demand_upper", "lambda")
