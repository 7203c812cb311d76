import numpy as np
import pytest

from mcsgame.dynamics import (
    EnvConfig,
    GameState,
    env_reset,
    env_step,
    greedy_policy,
    random_policy,
    respond,
    step_trace_columns,
)
from mcsgame.leader import compute_se
from mcsgame.model import LinearDemand, MuProfile, Scenario, UniformDemand
from conftest import make_scenario


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _costly_scenario():
    # every unit cost strictly positive so a zero price sells nothing
    mus = tuple(
        MuProfile(20.0, 0.5 + 0.1 * i, 0.1 + 0.05 * i, UniformDemand(0.0, 25.0))
        for i in range(3)
    )
    return Scenario(50.0, mus)


# ---------------------------------------------------------------------------
# reset


def test_reset_window_shape(five_mu_scenario):
    cfg = EnvConfig(history_rounds=3)
    state = env_reset(five_mu_scenario, cfg, _rng(0))
    assert state.window == 3
    assert state.n_mus == 5
    assert state.prices.shape == (3, 5)


def test_reset_deterministic(five_mu_scenario):
    cfg = EnvConfig()
    a = env_reset(five_mu_scenario, cfg, _rng(9))
    b = env_reset(five_mu_scenario, cfg, _rng(9))
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.allocations, b.allocations)


def test_reset_with_zero_prices_yields_zero_history():
    scenario = _costly_scenario()
    cfg = EnvConfig(history_rounds=1)
    state = env_reset(scenario, cfg, _rng(0), initial_prices=np.zeros((1, 3)))
    assert np.array_equal(state.allocations, np.zeros((1, 3)))


def test_reset_history_self_consistent(five_mu_scenario):
    cfg = EnvConfig()
    state = env_reset(five_mu_scenario, cfg, _rng(4))
    for t in range(state.window):
        assert np.allclose(state.allocations[t], respond(five_mu_scenario, state.prices[t]))


def test_reset_rejects_bad_initial_prices(five_mu_scenario):
    cfg = EnvConfig(history_rounds=2)
    with pytest.raises(ValueError):
        env_reset(five_mu_scenario, cfg, _rng(0), initial_prices=np.zeros((3, 5)))
    with pytest.raises(ValueError):
        env_reset(five_mu_scenario, cfg, _rng(0), initial_prices=np.full((2, 5), 2.0))


# ---------------------------------------------------------------------------
# step


def test_step_at_static_optimum_reproduces_payoff():
    scenario = make_scenario(7)
    se = compute_se(scenario)
    cfg = EnvConfig()
    state = env_reset(scenario, cfg, _rng(1))
    tr = env_step(scenario, cfg, state, se.prices.values)
    assert tr.sp_payoff == pytest.approx(se.sp_payoff, abs=1e-9)
    assert np.allclose(tr.mu_payoffs, se.mu_payoffs, atol=1e-9)


def test_step_zero_prices_zero_reward():
    scenario = _costly_scenario()
    cfg = EnvConfig()
    state = env_reset(scenario, cfg, _rng(2))
    tr = env_step(scenario, cfg, state, np.zeros(3))
    assert np.array_equal(tr.next_state.allocations[-1], np.zeros(3))
    assert tr.reward == 0.0
    assert not tr.clamped


def test_step_zero_price_at_zero_cost_past_the_support():
    # capacity >= demand_hi under linear demand: price 0 equals the unit
    # cost 0, where the kept quantile sits on the vanishing density
    mus = tuple(MuProfile(cap, 0.8, 0.0, LinearDemand(0.0, 25.0)) for cap in (25.0, 30.0))
    scenario = Scenario(50.0, mus)
    cfg = EnvConfig(history_rounds=1)
    state = env_reset(scenario, cfg, _rng(4))
    tr = env_step(scenario, cfg, state, np.zeros(2))
    assert np.array_equal(tr.next_state.allocations[-1], [0.0, 5.0])
    assert tr.sp_payoff == pytest.approx(50.0 * np.log(1.0 + np.log(6.0)), rel=1e-12)
    assert np.array_equal(tr.mu_payoffs, [0.0, 0.0])


def test_step_reward_scaling(five_mu_scenario):
    cfg = EnvConfig(reward_scale=0.01)
    state = env_reset(five_mu_scenario, cfg, _rng(3))
    tr = env_step(five_mu_scenario, cfg, state, np.full(5, 0.8))
    assert tr.reward == pytest.approx(0.01 * tr.sp_payoff, abs=1e-15)


def test_step_clamps_and_flags(five_mu_scenario):
    cfg = EnvConfig(p_max=1.0)
    state = env_reset(five_mu_scenario, cfg, _rng(5))
    tr = env_step(five_mu_scenario, cfg, state, np.array([2.0, -0.5, 0.5, 0.5, 0.5]))
    assert tr.clamped
    assert tr.action.values[0] == 1.0
    assert tr.action.values[1] == 0.0
    in_range = env_step(five_mu_scenario, cfg, state, np.full(5, 0.7))
    assert not in_range.clamped


def test_step_slides_window(five_mu_scenario):
    cfg = EnvConfig(history_rounds=3)
    state = env_reset(five_mu_scenario, cfg, _rng(6))
    action = np.full(5, 0.6)
    tr = env_step(five_mu_scenario, cfg, state, action)
    nxt = tr.next_state
    assert nxt.window == 3
    assert np.array_equal(nxt.prices[:-1], state.prices[1:])
    assert np.array_equal(nxt.prices[-1], action)
    assert np.allclose(nxt.allocations[-1], respond(five_mu_scenario, action))


def test_step_deterministic(five_mu_scenario):
    cfg = EnvConfig()
    state = env_reset(five_mu_scenario, cfg, _rng(7))
    a = env_step(five_mu_scenario, cfg, state, np.full(5, 0.4))
    b = env_step(five_mu_scenario, cfg, state, np.full(5, 0.4))
    assert a.sp_payoff == b.sp_payoff
    assert np.array_equal(a.next_state.prices, b.next_state.prices)


def test_step_validates_action(five_mu_scenario):
    cfg = EnvConfig()
    state = env_reset(five_mu_scenario, cfg, _rng(8))
    with pytest.raises(ValueError):
        env_step(five_mu_scenario, cfg, state, np.zeros(4))
    with pytest.raises(ValueError):
        env_step(five_mu_scenario, cfg, state, np.array([np.nan] * 5))


# ---------------------------------------------------------------------------
# baseline policies


def test_greedy_is_price_cap(five_mu_scenario):
    assert np.array_equal(greedy_policy(five_mu_scenario, EnvConfig(p_max=1.0)), np.ones(5))


def test_greedy_never_beats_static_optimum():
    for seed in (7, 42):
        scenario = make_scenario(seed)
        se = compute_se(scenario)
        cfg = EnvConfig()
        state = env_reset(scenario, cfg, _rng(0))
        tr = env_step(scenario, cfg, state, greedy_policy(scenario, cfg))
        assert tr.sp_payoff <= se.sp_payoff + 1e-9
        # users do better under greedy pricing
        assert np.all(tr.mu_payoffs >= se.mu_payoffs - 1e-9)


def test_random_policy_bounds_and_determinism():
    cfg = EnvConfig(p_max=1.0)
    draws = random_policy(5, cfg, _rng(11))
    again = random_policy(5, cfg, _rng(11))
    assert np.array_equal(draws, again)
    assert np.all((draws >= 0.0) & (draws <= 1.0))


def test_random_policy_mean():
    cfg = EnvConfig(p_max=1.0)
    draws = random_policy(100000, cfg, _rng(12))
    se = (1.0 / np.sqrt(12.0)) / np.sqrt(draws.size)
    assert abs(np.mean(draws) - 0.5) < 3.0 * se


# ---------------------------------------------------------------------------
# state plumbing


def test_features_layout():
    prices = np.array([[0.1, 0.2], [0.3, 0.4]])
    allocs = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = GameState(prices=prices, allocations=allocs)
    want = np.array([0.1, 0.2, 1.0, 2.0, 0.3, 0.4, 3.0, 4.0])
    assert np.array_equal(state.features(), want)


def test_state_arrays_read_only():
    state = GameState(prices=np.zeros((1, 2)), allocations=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        state.prices[0, 0] = 1.0


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(history_rounds=0)
    with pytest.raises(ValueError):
        EnvConfig(reward_scale=0.0)
    with pytest.raises(ValueError):
        EnvConfig(p_max=-1.0)


def test_step_trace_columns_layout():
    cols = step_trace_columns(2)
    assert cols == [
        "episode",
        "step",
        "p_1",
        "p_2",
        "x_1",
        "x_2",
        "sp_payoff",
        "reward",
        "mu_payoff_1",
        "mu_payoff_2",
        "clamped_flag",
    ]
