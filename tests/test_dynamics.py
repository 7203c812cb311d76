import csv

import numpy as np
import pytest

from mcsgame.cli import main
from mcsgame.dynamics import (
    EnvConfig,
    env_reset,
    env_step,
    episode_outcomes,
    respond,
)
from mcsgame.experiments import ScenarioSpec, generate_scenario, play_constant, play_greedy
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
    prices, allocations = env_reset(five_mu_scenario, cfg, _rng(0))
    for arr in (prices, allocations):
        assert arr.shape == (3, 5) and arr.dtype == np.float64


def test_reset_deterministic(five_mu_scenario):
    cfg = EnvConfig()
    a = env_reset(five_mu_scenario, cfg, _rng(9))
    b = env_reset(five_mu_scenario, cfg, _rng(9))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_respond_to_zero_prices_sells_nothing():
    scenario = _costly_scenario()
    assert np.array_equal(respond(scenario, np.zeros(3)), np.zeros(3))


def test_reset_history_self_consistent(five_mu_scenario):
    """Each starting round's prices are uniform on [0, p_max], its allocations their response."""
    for history in (1, 3):
        cfg = EnvConfig(history_rounds=history, p_max=0.8)
        prices, allocations = env_reset(five_mu_scenario, cfg, _rng(4))
        assert np.array_equal(prices, _rng(4).uniform(0.0, 0.8, size=(history, 5)))
        for t in range(history):
            want = respond(five_mu_scenario, prices[t])
            assert np.array_equal(_bits(allocations[t]), _bits(want))


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


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.uint64)


def _played(scenario, cfg, actions):
    """env_step of each action, as (D, N) executed prices and sales."""
    return map(np.array, zip(*(env_step(scenario, cfg, a) for a in actions)))


def _assert_outcomes_are_the_public_formulas(scenario, cfg, prices, alloc):
    out = episode_outcomes(scenario, cfg, prices, alloc)
    assert out.mu_payoffs.shape == prices.shape and out.reward.shape == (len(prices),)
    for k, (p, x) in enumerate(zip(prices, alloc)):
        payoff = sp_payoff(x, p, scenario.utility_scale)
        assert _bits(out.sp_payoff[k]) == _bits(payoff)
        assert _bits(out.reward[k]) == _bits(cfg.reward_scale * payoff)
        want = [mu_payoff(mu, xi, pi) for mu, xi, pi in zip(scenario.mus, x.tolist(), p.tolist())]
        assert np.array_equal(_bits(out.mu_payoffs[k]), _bits(want))


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
    # every user meets every kind once over the shifts
    actions = np.array([
        [_PRICE_KINDS[(i + shift) % len(_PRICE_KINDS)](mu) for i, mu in enumerate(mus)]
        for shift in range(len(_PRICE_KINDS))
    ])
    prices, alloc = _played(scenario, cfg, actions)
    executed = np.clip(actions, 0.0, cfg.p_max)
    assert np.array_equal(_bits(prices), _bits(executed))
    want = [[best_response(mu, p).allocation for mu, p in zip(mus, row)] for row in executed]
    assert np.array_equal(_bits(alloc), _bits(want))
    _assert_outcomes_are_the_public_formulas(scenario, cfg, prices, alloc)


@pytest.mark.parametrize("law", [UniformDemand, LinearDemand])
@pytest.mark.parametrize("n", [1, 5, 25])
def test_episode_outcomes_equal_the_public_formulas_row_by_row(law, n):
    """Per round: model.sp_payoff, reward_scale times it and model.mu_payoff, bit for bit."""
    rng = _rng(n)
    mus = tuple(MuProfile(float(cap), float(value), float(cost), law(0.0, 25.0))
                for cap, value, cost in zip(rng.uniform(5.0, 30.0, n), rng.uniform(0.5, 1.0, n),
                                            rng.uniform(0.0, 0.45, n)))
    scenario = Scenario(50.0, mus)
    cfg = EnvConfig(reward_scale=0.37)
    # each kind for every user (clamped at 0 and p_max, no sale, the whole
    # capacity), then random rounds, a quarter of their prices clamped
    kinds = [[kind(mu) for mu in mus] for kind in _PRICE_KINDS]
    actions = np.vstack([kinds, rng.uniform(-0.25, 1.25, size=(40, n))])
    prices, alloc = _played(scenario, cfg, actions)
    assert np.any(prices == 0.0) and np.any(prices == cfg.p_max)
    assert np.any(alloc == 0.0) and np.any(alloc == scenario.capacities())
    _assert_outcomes_are_the_public_formulas(scenario, cfg, prices, alloc)


def test_step_keeps_the_sign_of_a_zero_price_as_clip_does(five_mu_scenario):
    cfg = EnvConfig()
    action = np.array([-0.0, 0.0, 0.3, 0.6, 0.9])
    executed, _ = env_step(five_mu_scenario, cfg, action)
    assert np.array_equal(np.signbit(executed), np.signbit(np.clip(action, 0.0, cfg.p_max)))
    assert np.array_equal(executed, action)


def _outcome(scenario, cfg, action):
    """The executed prices, the sales and the outcomes of one round."""
    executed, alloc = env_step(scenario, cfg, action)
    out = episode_outcomes(scenario, cfg, executed[None], alloc[None])
    return executed, alloc, type(out)(*(col[0] for col in out))


def test_step_at_static_optimum_reproduces_payoff():
    scenario = make_scenario(7)
    se = compute_se(scenario)
    out = _outcome(scenario, EnvConfig(), se.prices)[2]
    assert out.sp_payoff == pytest.approx(se.sp_payoff, abs=1e-9)
    assert np.allclose(out.mu_payoffs, se.mu_payoffs, atol=1e-9)


def test_step_zero_prices_zero_reward():
    scenario = _costly_scenario()
    executed, alloc, out = _outcome(scenario, EnvConfig(), np.zeros(3))
    assert np.array_equal(alloc, np.zeros(3))
    assert out.reward == 0.0
    assert np.array_equal(executed, np.zeros(3))


def test_step_zero_price_at_zero_cost_past_the_support():
    # capacity >= demand_hi under linear demand: price 0 equals the unit
    # cost 0, where the kept quantile sits on the vanishing density
    mus = tuple(MuProfile(cap, 0.8, 0.0, LinearDemand(0.0, 25.0)) for cap in (25.0, 30.0))
    scenario = Scenario(50.0, mus)
    _, alloc, out = _outcome(scenario, EnvConfig(), np.zeros(2))
    assert np.array_equal(alloc, [0.0, 5.0])
    assert out.sp_payoff == pytest.approx(50.0 * np.log(1.0 + np.log(6.0)), rel=1e-12)
    assert np.array_equal(out.mu_payoffs, [0.0, 0.0])


def test_step_reward_scaling(five_mu_scenario):
    cfg = EnvConfig(reward_scale=0.01)
    out = _outcome(five_mu_scenario, cfg, np.full(5, 0.8))[2]
    assert out.reward == pytest.approx(0.01 * out.sp_payoff, abs=1e-15)


def test_step_clamps_and_flags(five_mu_scenario):
    # a round is flagged as clamped where its executed prices differ from the action
    cfg = EnvConfig(p_max=1.0)
    action = np.array([2.0, -0.5, 0.5, 0.5, 0.5])
    executed, _ = env_step(five_mu_scenario, cfg, action)
    assert executed[0] == 1.0 and executed[1] == 0.0
    assert np.array_equal(executed != action, [True, True, False, False, False])
    in_range = np.full(5, 0.7)
    assert np.array_equal(env_step(five_mu_scenario, cfg, in_range)[0], in_range)


def test_step_returns_fresh_arrays(five_mu_scenario):
    # train passes a row of its episode array of actions and overwrites it later
    action = np.full(5, 0.6)
    executed, alloc = env_step(five_mu_scenario, EnvConfig(), action)
    for arr in (executed, alloc):
        assert arr.dtype == np.float64 and not np.shares_memory(arr, action)
    action[:] = 0.9
    assert np.array_equal(executed, np.full(5, 0.6))
    assert np.array_equal(alloc, respond(five_mu_scenario, np.full(5, 0.6)))


def test_step_deterministic(five_mu_scenario):
    cfg = EnvConfig()
    a = _outcome(five_mu_scenario, cfg, np.full(5, 0.4))
    b = _outcome(five_mu_scenario, cfg, np.full(5, 0.4))
    assert a[2].sp_payoff == b[2].sp_payoff
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2].mu_payoffs, b[2].mu_payoffs)


def test_step_validates_action(five_mu_scenario):
    cfg = EnvConfig()
    with pytest.raises(ValueError):
        env_step(five_mu_scenario, cfg, np.zeros(4))
    with pytest.raises(ValueError):
        env_step(five_mu_scenario, cfg, np.array([np.nan] * 5))


# ---------------------------------------------------------------------------
# greedy pricing


def test_greedy_is_price_cap(five_mu_scenario):
    cfg = EnvConfig(p_max=0.7)  # a cap other than the default
    greedy = play_greedy(five_mu_scenario, cfg, 4)
    at_cap = play_constant(five_mu_scenario, cfg, np.full(5, 0.7), 4, "greedy")
    assert (greedy.mean_sp_payoff, greedy.mean_reward) == (at_cap.mean_sp_payoff,
                                                           at_cap.mean_reward)
    assert np.array_equal(greedy.mean_mu_payoff, at_cap.mean_mu_payoff)


def test_greedy_never_beats_static_optimum():
    for seed in (7, 42):
        scenario = make_scenario(seed)
        se = compute_se(scenario)
        cfg = EnvConfig()
        out = _outcome(scenario, cfg, np.full(scenario.n, cfg.p_max))[2]
        assert out.sp_payoff <= se.sp_payoff + 1e-9
        # users do better under greedy pricing
        assert np.all(out.mu_payoffs >= se.mu_payoffs - 1e-9)


# ---------------------------------------------------------------------------
# config


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
