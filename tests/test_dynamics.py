import csv

import numpy as np
import pytest

from mcsgame.cli import main
from mcsgame.dynamics import (
    EnvConfig,
    GameState,
    env_reset,
    env_step,
    greedy_policy,
    random_policy,
    respond,
)
from mcsgame.experiments import ScenarioSpec, generate_scenario
from mcsgame.follower import best_response, price_threshold
from mcsgame.leader import compute_se
from mcsgame.model import LinearDemand, MuProfile, Scenario, UniformDemand, mu_payoff, sp_payoff
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


def test_respond_to_zero_prices_sells_nothing():
    scenario = _costly_scenario()
    assert np.array_equal(respond(scenario, np.zeros(3)), np.zeros(3))


def test_reset_history_self_consistent(five_mu_scenario):
    cfg = EnvConfig()
    state = env_reset(five_mu_scenario, cfg, _rng(4))
    for t in range(state.window):
        assert np.allclose(state.allocations[t], respond(five_mu_scenario, state.prices[t]))


# ---------------------------------------------------------------------------
# step

# Price kinds each user is stepped at: below its threshold, at it,
# interior, at own_value, above own_value, and clamped from either side
# of [0, p_max = 1].
_PRICE_KINDS = (
    lambda mu: 0.5 * price_threshold(mu),
    price_threshold,
    lambda mu: 0.5 * (price_threshold(mu) + mu.own_value),
    lambda mu: mu.own_value,
    lambda mu: 0.5 * (mu.own_value + 1.0),
    lambda mu: 1.7,
    lambda mu: -0.2,
)


@pytest.mark.parametrize("law", [UniformDemand, LinearDemand])
@pytest.mark.parametrize("demand_lo", [0.0, 4.0])
def test_step_matches_the_public_formulas_bit_for_bit(law, demand_lo):
    mus = tuple(
        MuProfile(cap, value, cost, law(demand_lo, 25.0))
        for cap, value, cost in (
            (20.0, 0.9, 0.2), (30.0, 0.8, 0.1), (20.0, 0.7, 0.3), (5.0, 0.95, 0.05),
            (20.0, 0.6, 0.0), (25.0, 0.85, 0.4), (20.0, 0.5, 0.45),
        )
    )
    scenario = Scenario(50.0, mus)
    cfg = EnvConfig()
    for shift in range(len(_PRICE_KINDS)):
        # every user meets every kind once over the shifts
        action = np.array([
            _PRICE_KINDS[(i + shift) % len(_PRICE_KINDS)](mu) for i, mu in enumerate(mus)
        ])
        tr = env_step(scenario, cfg, action)
        executed = np.clip(action, 0.0, cfg.p_max)
        alloc = np.array([best_response(mu, p).allocation for mu, p in zip(mus, executed)])
        payoff = sp_payoff(alloc, executed, scenario.utility_scale)
        assert np.array_equal(tr.action, executed) and not tr.action.flags.writeable
        assert np.array_equal(tr.allocations, alloc)
        assert tr.sp_payoff == payoff
        assert tr.reward == cfg.reward_scale * payoff
        payoffs = np.array([mu_payoff(mu, x, p) for mu, x, p in zip(mus, alloc, executed)])
        assert np.array_equal(tr.mu_payoffs.view(np.uint64), payoffs.view(np.uint64))
        assert tr.clamped is True


def test_step_keeps_the_sign_of_a_zero_price_as_clip_does(five_mu_scenario):
    cfg = EnvConfig()
    action = np.array([-0.0, 0.0, 0.3, 0.6, 0.9])
    tr = env_step(five_mu_scenario, cfg, action)
    assert np.array_equal(np.signbit(tr.action), np.signbit(np.clip(action, 0.0, cfg.p_max)))
    assert not tr.clamped


def test_step_at_static_optimum_reproduces_payoff():
    scenario = make_scenario(7)
    se = compute_se(scenario)
    tr = env_step(scenario, EnvConfig(), se.prices)
    assert tr.sp_payoff == pytest.approx(se.sp_payoff, abs=1e-9)
    assert np.allclose(tr.mu_payoffs, se.mu_payoffs, atol=1e-9)


def test_step_zero_prices_zero_reward():
    scenario = _costly_scenario()
    tr = env_step(scenario, EnvConfig(), np.zeros(3))
    assert np.array_equal(tr.allocations, np.zeros(3))
    assert tr.reward == 0.0
    assert not tr.clamped


def test_step_zero_price_at_zero_cost_past_the_support():
    # capacity >= demand_hi under linear demand: price 0 equals the unit
    # cost 0, where the kept quantile sits on the vanishing density
    mus = tuple(MuProfile(cap, 0.8, 0.0, LinearDemand(0.0, 25.0)) for cap in (25.0, 30.0))
    scenario = Scenario(50.0, mus)
    tr = env_step(scenario, EnvConfig(), np.zeros(2))
    assert np.array_equal(tr.allocations, [0.0, 5.0])
    assert tr.sp_payoff == pytest.approx(50.0 * np.log(1.0 + np.log(6.0)), rel=1e-12)
    assert np.array_equal(tr.mu_payoffs, [0.0, 0.0])


def test_step_reward_scaling(five_mu_scenario):
    cfg = EnvConfig(reward_scale=0.01)
    tr = env_step(five_mu_scenario, cfg, np.full(5, 0.8))
    assert tr.reward == pytest.approx(0.01 * tr.sp_payoff, abs=1e-15)


def test_step_clamps_and_flags(five_mu_scenario):
    cfg = EnvConfig(p_max=1.0)
    tr = env_step(five_mu_scenario, cfg, np.array([2.0, -0.5, 0.5, 0.5, 0.5]))
    assert tr.clamped
    assert tr.action[0] == 1.0
    assert tr.action[1] == 0.0
    in_range = env_step(five_mu_scenario, cfg, np.full(5, 0.7))
    assert not in_range.clamped


def test_step_returns_fresh_arrays(five_mu_scenario):
    # train passes a row of its episode array of actions and overwrites it later
    action = np.full(5, 0.6)
    tr = env_step(five_mu_scenario, EnvConfig(), action)
    for arr in (tr.action, tr.allocations, tr.mu_payoffs):
        assert arr.dtype == np.float64 and not np.shares_memory(arr, action)
    action[:] = 0.9
    assert np.array_equal(tr.action, np.full(5, 0.6))
    assert np.array_equal(tr.allocations, respond(five_mu_scenario, np.full(5, 0.6)))


def test_step_deterministic(five_mu_scenario):
    cfg = EnvConfig()
    a = env_step(five_mu_scenario, cfg, np.full(5, 0.4))
    b = env_step(five_mu_scenario, cfg, np.full(5, 0.4))
    assert a.sp_payoff == b.sp_payoff
    assert np.array_equal(a.allocations, b.allocations)
    assert np.array_equal(a.mu_payoffs, b.mu_payoffs)


def test_step_validates_action(five_mu_scenario):
    cfg = EnvConfig()
    with pytest.raises(ValueError):
        env_step(five_mu_scenario, cfg, np.zeros(4))
    with pytest.raises(ValueError):
        env_step(five_mu_scenario, cfg, np.array([np.nan] * 5))


# ---------------------------------------------------------------------------
# baseline policies


def test_greedy_is_price_cap(five_mu_scenario):
    assert np.array_equal(greedy_policy(five_mu_scenario, EnvConfig(p_max=1.0)), np.ones(5))


def test_greedy_never_beats_static_optimum():
    for seed in (7, 42):
        scenario = make_scenario(seed)
        se = compute_se(scenario)
        cfg = EnvConfig()
        tr = env_step(scenario, cfg, greedy_policy(scenario, cfg))
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


def test_state_arrays_read_only():
    state = GameState(prices=np.zeros((1, 2)), allocations=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        state.prices[0, 0] = 1.0


def test_state_copies_caller_arrays():
    prices, allocs = np.zeros((2, 2)), np.ones((2, 2))
    state = GameState(prices=prices, allocations=allocs)
    prices[0, 0] = allocs[0, 0] = 7.0
    assert state.prices[0, 0] == 0.0 and state.allocations[0, 0] == 1.0
    # a read-only view shares a writable base, so it is copied too
    view = prices[:1]
    view.flags.writeable = False
    assert not np.shares_memory(GameState(prices=view, allocations=view).prices, prices)


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(history_rounds=0)
    with pytest.raises(ValueError):
        EnvConfig(reward_scale=0.0)
    with pytest.raises(ValueError):
        EnvConfig(p_max=-1.0)
    with pytest.raises(TypeError):  # steps_per_batch sets the episode length
        EnvConfig(episode_length=16)


@pytest.fixture(scope="module")
def steps_csv(tmp_path_factory):
    """steps.csv of a short two-user run, as its header and its rows."""
    out = tmp_path_factory.mktemp("trace") / "run"
    sets = ["scenario.n_mus=2", "train.episodes=2", "train.steps_per_batch=8",
            "train.update_epochs=1", "train.hidden=[4]", "train.log_std_init=1",
            "baseline_steps=10"]
    args = [arg for a in sets for arg in ("--set", a)]
    rc = main(["train", "--seed", "4", *args, "--steps-trace", "on", "--svg", "off",
               "--out", str(out)])
    assert rc == 0
    with open(out / "steps.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_step_trace_columns_layout(steps_csv):
    header, rows = steps_csv
    assert header == [
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
    assert rows and all(len(row) == len(header) for row in rows)


def test_step_trace_row_follows_columns(steps_csv):
    header, rows = steps_csv
    scenario = generate_scenario(ScenarioSpec(n_mus=2), 4)
    cfg = EnvConfig()
    records = [dict(zip(header, row)) for row in rows]
    assert [(r["episode"], r["step"]) for r in records] == [
        (str(ep), str(k)) for ep in (1, 2) for k in range(1, 9)
    ]
    clamped_to_cap = 0
    for r in records:
        p = np.array([float(r["p_1"]), float(r["p_2"])])
        assert np.all((p >= 0.0) & (p <= cfg.p_max))
        x = respond(scenario, p)
        assert [float(r["x_1"]), float(r["x_2"])] == x.tolist()
        payoff = sp_payoff(x, p, scenario.utility_scale)
        assert (float(r["sp_payoff"]), float(r["reward"])) == (payoff, cfg.reward_scale * payoff)
        assert [float(r["mu_payoff_1"]), float(r["mu_payoff_2"])] == [
            mu_payoff(mu, xi, pi) for mu, xi, pi in zip(scenario.mus, x, p)
        ]
        # a sampled price lands on 0 or p_max only by being clamped there
        on_edge = bool(np.any((p == 0.0) | (p == cfg.p_max)))
        assert r["clamped_flag"] == ("1" if on_edge else "0")
        clamped_to_cap += bool(np.any(p == cfg.p_max))
    assert clamped_to_cap > 0
