"""Tests for the numpy PPO agent: networks, estimators, training loop."""

import ast
import dataclasses
import inspect

import numpy as np
import pytest

import mcsgame.learner as learner_mod
from conftest import assert_checkpoint_holds, make_scenario
from mcsgame.dynamics import EnvConfig, env_reset, env_step, episode_outcomes, respond, step_mean
from mcsgame.gradcheck import _toy_batch, _toy_policy
from mcsgame.learner import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    MlpParams,
    PolicyParams,
    TrainConfig,
    TrainingDiverged,
    clip_ratio,
    critic_loss_and_gradient,
    episode_batch,
    gaussian_log_prob,
    mlp_backward,
    mlp_forward,
    mlp_init,
    policy_sample,
    ppo_actor_gradient,
    ppo_surrogate,
    save_policy,
    train,
)
from oracles import discounted_targets_oracle, masked_sigmoid, ppo_reference


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _features(window, price_scale):
    """A window's observation, written out: per round, oldest first, prices / scale, log1p(sales)."""
    prices, allocations = window
    return np.concatenate([np.concatenate([p / price_scale, np.log1p(x)])
                           for p, x in zip(prices, allocations)])


def _mean_action(policy, window):
    """The Gaussian mean, through the actor and observation train uses."""
    return mlp_forward(policy.actor, _features(window, policy.obs_price_scale))


def _init_policy(window, env, cfg, rng):
    """train's fresh policy for a (prices, allocations) starting window."""
    prices = window[0]
    return learner_mod._init_policy(2 * prices.size, prices.shape[1], env, cfg, rng)


def _zero_mlp(sizes, bounded_output=False, output_scale=1.0):
    weights = [np.zeros((sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    return MlpParams(weights, biases, bounded_output, output_scale)


# ---------------------------------------------------------------------------
# MLP forward / backward


def test_zero_weights_linear_head_outputs_zero():
    params = _zero_mlp((4, 8, 3))
    out = mlp_forward(params, np.ones(4))
    assert out.shape == (3,)
    assert np.array_equal(out, np.zeros(3))


def test_zero_weights_bounded_head_outputs_half_scale():
    # sigmoid(0) = 1/2, scaled by the price cap
    params = _zero_mlp((4, 8, 2), bounded_output=True, output_scale=3.0)
    out = mlp_forward(params, _rng(0).uniform(-1, 1, 4))
    assert np.allclose(out, 1.5, rtol=0, atol=1e-15)


def test_random_init_finite_and_bounded():
    rng = _rng(5)
    params = mlp_init((6, 16, 16, 3), rng, bounded_output=True, output_scale=2.0)
    xs = rng.uniform(-2, 2, size=(50, 6))
    out = mlp_forward(params, xs)
    assert out.shape == (50, 3)
    assert np.all(np.isfinite(out))
    assert np.all(out > 0.0) and np.all(out < 2.0)


def test_mlp_init_shapes_and_zero_biases():
    params = mlp_init((5, 7, 2), _rng(1))
    assert [W.shape for W in params.weights] == [(7, 5), (2, 7)]
    assert all(np.array_equal(b, np.zeros(b.size)) for b in params.biases)


def test_mlp_init_rejects_single_size():
    with pytest.raises(ValueError):
        mlp_init((4,), _rng(0))


def test_batch_forward_matches_single():
    rng = _rng(7)
    params = mlp_init((3, 8, 2), rng, bounded_output=True, output_scale=1.0)
    xs = rng.uniform(-1, 1, size=(4, 3))
    batch = mlp_forward(params, xs)
    for i in range(4):
        assert np.allclose(batch[i], mlp_forward(params, xs[i]), rtol=1e-14)


@pytest.mark.parametrize("sizes", [(3, 2), (6, 5, 4, 2), (30, 64, 64, 5), (30, 64, 64, 1)])
@pytest.mark.parametrize("bounded", [False, True])
def test_single_state_forward_matches_the_batch_path(sizes, bounded):
    # bit equality holds on OpenBLAS; another BLAS may round a
    # matrix-vector product differently from a one-row matrix product.
    # atol is a floor for outputs that cancel to near 0.
    rng = _rng(len(sizes) + bounded)
    params = mlp_init(sizes, rng, bounded_output=bounded, output_scale=1.5)
    for x in rng.uniform(-2.0, 2.0, size=(50, sizes[0])):
        single = mlp_forward(params, x)
        assert single.shape == (sizes[-1],)
        batch_row = learner_mod._forward_cached(params, x[None, :])[0][0]
        np.testing.assert_allclose(single, batch_row, rtol=1e-13, atol=1e-15)


def _assert_packed(params):
    """Every weight and bias of params is a view into its one float64 vector."""
    arrays = [*params.weights, *params.biases]
    assert params.vector.dtype == np.float64 and params.vector.flags.c_contiguous
    assert params.vector.size == sum(a.size for a in arrays)
    assert all(np.shares_memory(a, params.vector) for a in arrays)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), params.vector)


def test_parameters_are_views_of_one_vector(tmp_path):
    net = mlp_init((5, 7, 3, 2), _rng(3), bounded_output=True)
    _assert_packed(net)
    net.vector += 1.0  # a step on the vector moves every layer
    assert all(np.all(b == 1.0) for b in net.biases)

    scenario = make_scenario(3, n=3)
    cfg = TrainConfig(**_SMALL)
    policy, _ = train(scenario, EnvConfig(), cfg)
    save_policy(tmp_path / "a.json", policy, EnvConfig(), cfg)
    record = assert_checkpoint_holds(tmp_path / "a.json", policy, EnvConfig(), cfg)
    for key, trained in (("actor", policy.actor), ("critic", policy.critic)):
        _assert_packed(trained)
        # the checkpoint lists the packed vector: every layer's weights, then the biases
        written = [*record[key]["weights"], *record[key]["biases"]]
        assert np.array_equal(_bits(np.concatenate(written)), _bits(trained.vector))


def test_params_copy_the_arrays_they_are_built_from():
    W, b = np.ones((2, 3)), np.zeros(2)
    params = MlpParams([W], [b])
    params.vector[:] = 5.0
    assert np.all(W == 1.0) and np.all(b == 0.0)
    _assert_packed(params)


def _fd_sum_loss(params, x, upstream, arrays, idx_pairs, h=1e-6):
    """Central differences of sum(upstream * forward(x)) per coordinate."""
    grads = []
    for arr, idx in zip(arrays, idx_pairs):
        orig = arr[idx]
        arr[idx] = orig + h
        up = float(np.sum(upstream * mlp_forward(params, x)))
        arr[idx] = orig - h
        dn = float(np.sum(upstream * mlp_forward(params, x)))
        arr[idx] = orig
        grads.append((up - dn) / (2.0 * h))
    return grads


@pytest.mark.parametrize("bounded", [False, True])
def test_mlp_backward_matches_finite_differences(bounded):
    rng = _rng(11)
    params = mlp_init((5, 9, 3), rng, bounded_output=bounded, output_scale=1.7)
    x = rng.uniform(-1, 1, size=(4, 5))
    upstream = rng.uniform(-1, 1, size=(4, 3))
    grads = mlp_backward(params, x, upstream)

    probes = []
    for li in range(len(params.weights)):
        w = params.weights[li]
        for _ in range(3):
            idx = (int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1])))
            probes.append((params.weights[li], idx, grads.weights[li][idx]))
        bi = int(rng.integers(params.biases[li].size))
        probes.append((params.biases[li], (bi,), grads.biases[li][bi]))

    arrays = [p[0] for p in probes]
    idxs = [p[1] for p in probes]
    fd = _fd_sum_loss(params, x, upstream, arrays, idxs)
    for (arr, idx, analytic), numeric in zip(probes, fd):
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom < 1e-4


def test_mlp_backward_zero_upstream_gives_zero_grads():
    rng = _rng(2)
    params = mlp_init((4, 6, 2), rng)
    x = rng.uniform(-1, 1, size=(3, 4))
    grads = mlp_backward(params, x, np.zeros((3, 2)))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.weights)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.biases)


def test_mlp_backward_linear_in_upstream():
    rng = _rng(3)
    params = mlp_init((4, 6, 2), rng, bounded_output=True, output_scale=1.0)
    x = rng.uniform(-1, 1, size=(3, 4))
    upstream = rng.uniform(-1, 1, size=(3, 2))
    g1 = mlp_backward(params, x, upstream)
    g3 = mlp_backward(params, x, 3.0 * upstream)
    for a, b in zip(g1.weights + g1.biases, g3.weights + g3.biases):
        assert np.allclose(3.0 * a, b, rtol=1e-12, atol=1e-15)


def test_mlp_backward_rejects_bad_upstream_shape():
    params = mlp_init((4, 6, 2), _rng(0))
    with pytest.raises(ValueError):
        mlp_backward(params, np.zeros((3, 4)), np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# Gaussian policy


def test_log_prob_of_mean_standard_normal():
    # -log(sqrt(2 pi))
    lp = gaussian_log_prob(np.zeros(1), np.zeros(1), np.zeros(1))
    assert lp == pytest.approx(-0.9189385332046727, abs=1e-15)


def test_log_prob_sums_over_dimensions():
    lp = gaussian_log_prob(np.zeros(3), np.zeros(3), np.zeros(3))
    assert lp == pytest.approx(3 * -0.9189385332046727, abs=1e-14)


@pytest.mark.parametrize("n", [1, 5, 25])
def test_log_densities_of_rows_equal_the_one_dimensional_density(n):
    """train's one pass over the (D, N) rows gives each row's 1-D density, bit for bit."""
    rng = _rng(n)
    means = rng.uniform(0.0, 1.0, size=(64, n))
    log_std = rng.uniform(LOG_STD_MIN, LOG_STD_MAX, size=n)
    # raw actions, many beyond [0, p_max = 1] where the environment clamps them
    actions = means + np.exp(log_std) * rng.standard_normal((64, n))
    assert np.any(actions < 0.0) and np.any(actions > 1.0)
    rows = gaussian_log_prob(means, log_std, actions)
    assert rows.shape == (64,)
    want = [gaussian_log_prob(m, log_std, a) for m, a in zip(means, actions)]
    assert all(isinstance(w, float) for w in want)
    assert np.array_equal(_bits(rows), _bits(want))


def test_log_prob_matches_closed_form_off_mean():
    mean = np.array([0.5, -0.2])
    log_std = np.array([-0.4, 0.3])
    action = np.array([0.7, 0.1])
    z = (action - mean) / np.exp(log_std)
    expect = float(np.sum(-0.5 * np.log(2 * np.pi) - log_std - 0.5 * z**2))
    assert gaussian_log_prob(mean, log_std, action) == pytest.approx(expect, abs=1e-14)


def _fresh_state(seed=0, n=3):
    scenario = make_scenario(seed, n=n)
    cfg = EnvConfig()
    return scenario, cfg, env_reset(scenario, cfg, _rng(seed))


def test_policy_sample_deterministic_in_rng():
    scenario, cfg, state = _fresh_state(4)
    policy = _init_policy(state, cfg, TrainConfig(), _rng(9))
    feats = _features(state, policy.obs_price_scale)
    a1, m1 = policy_sample(policy, feats, _rng(33))
    a2, m2 = policy_sample(policy, feats, _rng(33))
    assert np.array_equal(a1, a2) and np.array_equal(m1, m2)


def test_policy_sample_returns_the_raw_action_and_the_actor_mean():
    scenario, cfg, state = _fresh_state(4)
    policy = _init_policy(state, cfg, TrainConfig(log_std_init=LOG_STD_MAX), _rng(9))
    feats = _features(state, policy.obs_price_scale)
    mean = _mean_action(policy, state)
    noise = _rng(12).standard_normal((50, scenario.n))
    rng = _rng(12)
    for z in noise:
        action, got_mean = policy_sample(policy, feats, rng)
        assert np.array_equal(_bits(got_mean), _bits(mean))
        assert np.array_equal(_bits(action), _bits(mean + np.exp(policy.log_std) * z))
    # unclamped: the log density train takes is of the raw sample
    actions = mean + np.exp(policy.log_std) * noise
    assert np.any(actions < 0.0) and np.any(actions > cfg.p_max)


def test_tiny_log_std_concentrates_samples():
    # sigma = e^-5: a thousand draws all hug the mean.  Seeded, so exact.
    scenario, cfg, state = _fresh_state(4)
    policy = _init_policy(state, cfg, TrainConfig(), _rng(9))
    policy.log_std = np.full(scenario.n, -5.0)
    mean = _mean_action(policy, state)
    feats = _features(state, policy.obs_price_scale)
    rng = _rng(77)
    sigma = np.exp(-5.0)
    for _ in range(1000):
        action, _ = policy_sample(policy, feats, rng)
        assert np.all(np.abs(action - mean) < 5.0 * sigma)


def test_mean_action_strictly_inside_price_box():
    scenario, cfg, state = _fresh_state(8)
    policy = _init_policy(state, cfg, TrainConfig(), _rng(1))
    mean = _mean_action(policy, state)
    assert np.all(mean > 0.0) and np.all(mean < cfg.p_max)


def test_observe_layout_and_scaling():
    """train's round rows, read as one window, are the observation written out."""
    scenario, cfg, (prices, allocations) = _fresh_state(2)
    L, n = prices.shape
    rows = learner_mod._round_features(prices, allocations, cfg.p_max, np.empty((L, 2 * n)))
    feats = rows.reshape(-1)
    assert feats.shape == (2 * L * n,)
    manual = []
    for r in range(L):
        manual.extend(prices[r] / cfg.p_max)
        manual.extend(np.log1p(allocations[r]))
    assert np.array_equal(feats, np.array(manual))


# ---------------------------------------------------------------------------
# episode batch, targets, advantages


def _batch(rewards, values, gamma, feat_dim=4):
    """The batch of steps with these rewards, zero features, actions and densities."""
    d = len(rewards)
    return episode_batch(np.zeros((d, feat_dim)), np.zeros((d, 2)), np.zeros(d), rewards, values,
                         gamma)


def _advantages(rewards, values, bootstrap, gamma):
    return _batch(rewards, [*values, bootstrap], gamma).advantages


def test_episode_batch_copies_the_episode_arrays():
    # train overwrites its episode arrays every episode; a batch keeps its steps
    steps = [np.zeros((2, 4)), np.zeros((2, 2)), np.zeros(2), np.array([1.0, 2.0])]
    batch = episode_batch(*steps, np.zeros(3), 0.9)
    for arr in steps:
        arr[0] = 7.0
    assert np.array_equal(batch.features, np.zeros((2, 4)))
    assert np.array_equal(batch.actions, np.zeros((2, 2)))
    assert np.array_equal(batch.log_probs, np.zeros(2))
    assert np.array_equal(batch.rewards, [1.0, 2.0])


def test_batch_takes_a_value_per_step_and_the_bootstrap():
    for values in ([0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]]):
        with pytest.raises(ValueError):
            _batch([1.0, 0.5], values, 0.9)


def test_advantage_two_step_example():
    # gamma=1: targets (1.5, 0.5), values (0.2, 0.1)
    adv = _advantages([1.0, 0.5], [0.2, 0.1], 0.0, 1.0)
    assert np.allclose(adv, [1.3, 0.4], rtol=0, atol=1e-15)


def test_advantage_zero_rewards_zero_values():
    assert np.array_equal(_advantages([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.0, 0.9), np.zeros(3))


def test_advantage_gamma_zero_is_td_residual():
    adv = _advantages([1.0, 0.5], [0.2, 0.1], 7.0, 0.0)
    assert np.allclose(adv, [0.8, 0.4], rtol=0, atol=1e-15)


def test_advantage_bootstrap_discounting():
    # t2 = 0.5 + 0.5*2 = 1.5, t1 = 1 + 0.5*1.5 = 1.75
    adv = _advantages([1.0, 0.5], [0.0, 0.0], 2.0, 0.5)
    assert np.allclose(adv, [1.75, 1.5], rtol=0, atol=1e-15)


def test_targets_match_double_loop_oracle():
    rng = _rng(21)
    rewards = rng.uniform(-1, 1, 7)
    bootstrap = float(rng.uniform(-1, 1))
    adv = _advantages(rewards, np.zeros(7), bootstrap, 0.9)
    assert np.allclose(adv, discounted_targets_oracle(rewards, bootstrap, 0.9), rtol=1e-12)


def test_advantage_rejects_bad_gamma():
    with pytest.raises(ValueError):
        _batch([1.0], [0.0, 0.0], 1.5)


def test_clip_ratio_examples():
    assert clip_ratio(1.5, 0.2) == 1.2
    assert clip_ratio(0.7, 0.2) == 0.8
    assert clip_ratio(1.0, 0.2) == 1.0
    assert np.array_equal(clip_ratio(np.array([0.0, 2.0]), 0.1), np.array([0.9, 1.1]))


# ---------------------------------------------------------------------------
# PPO surrogate and gradients


def _toy_policy_and_batch(
    seed=0, d_steps=6, ratio_offsets=None, rewards=None, values=None, bootstrap=None, gamma=0.9
):
    """Policy plus a batch whose stored log-probs came from that policy.

    ratio_offsets shifts the stored old log-probs so the current ratios
    move off 1 in a controlled way: ratio(k) = exp(-offset(k)).  rewards,
    values and bootstrap replace the random draws when given.  Returns
    (policy, batch, bootstrap).
    """
    rng = _rng(seed)
    in_dim, n_act = 6, 2
    actor = mlp_init((in_dim, 8, n_act), rng, bounded_output=True, output_scale=1.5)
    critic = mlp_init((in_dim, 8, 1), rng, out_weight_std=0.5)
    policy = PolicyParams(actor, np.array([-0.4, -0.1]), critic, obs_price_scale=1.0)
    feats, actions, log_probs, drawn_rewards, drawn_values = ([] for _ in range(5))
    for k in range(d_steps):
        feats.append(rng.uniform(-1.0, 1.0, in_dim))
        mean = mlp_forward(actor, feats[-1])
        actions.append(mean + np.exp(policy.log_std) * rng.standard_normal(n_act))
        lp = gaussian_log_prob(mean, policy.log_std, actions[-1])
        if ratio_offsets is not None:
            lp += ratio_offsets[k]
        log_probs.append(lp)
        drawn_rewards.append(rng.uniform(-1, 1))
        drawn_values.append(rng.uniform(-1, 1))
    drawn = float(rng.uniform(-1, 1))
    bootstrap = drawn if bootstrap is None else bootstrap
    rewards = drawn_rewards if rewards is None else rewards
    values = drawn_values if values is None else values
    batch = episode_batch(feats, actions, log_probs, rewards, [*values, bootstrap], gamma)
    return policy, batch, bootstrap


def test_fresh_buffer_ratios_are_one():
    policy, batch, _ = _toy_policy_and_batch(seed=4)
    surr = ppo_surrogate(policy, batch, 0.2)
    # ratio == 1 everywhere, so the surrogate is just the advantage sum
    assert surr == pytest.approx(float(np.sum(batch.advantages)), rel=1e-12)


def test_surrogate_clipping_is_pessimistic():
    # offset -0.5 => ratio e^0.5 ~ 1.65, outside the band
    policy, batch, _ = _toy_policy_and_batch(seed=4, ratio_offsets=[-0.5] * 6)
    adv = batch.advantages
    f = np.exp(0.5)
    expect = float(np.sum(np.minimum(f * adv, np.clip(f, 0.8, 1.2) * adv)))
    assert ppo_surrogate(policy, batch, 0.2) == pytest.approx(expect, rel=1e-10)


def _one_step_at_ratio_two(reward):
    """One step at ratio 2 whose advantage is reward (value 0, gamma 1)."""
    return _toy_policy_and_batch(
        seed=9, d_steps=1, ratio_offsets=[-np.log(2.0)], rewards=[reward], values=[0.0],
        bootstrap=0.0, gamma=1.0,
    )[:2]


def test_clipped_positive_advantage_contributes_zero_gradient():
    # Single step, ratio 2 with positive advantage: min saturates at the
    # clipped constant, so the policy gradient vanishes exactly.
    policy, batch = _one_step_at_ratio_two(1.0)
    grads = ppo_actor_gradient(policy, batch, 0.2)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.mlp.weights)
    assert np.array_equal(grads.log_std, np.zeros(2))


def test_unclipped_negative_advantage_keeps_gradient():
    # Same ratio but advantage -1: the unclipped branch is the minimum,
    # so the step still pushes the policy.
    policy, batch = _one_step_at_ratio_two(-1.0)
    grads = ppo_actor_gradient(policy, batch, 0.2)
    total = sum(float(np.sum(np.abs(g))) for g in grads.mlp.weights)
    assert total > 0.0


def _fd_probe(fn, arr, idx, h=1e-6):
    orig = arr[idx]
    arr[idx] = orig + h
    up = fn()
    arr[idx] = orig - h
    dn = fn()
    arr[idx] = orig
    return (up - dn) / (2.0 * h)


@pytest.mark.parametrize("offsets", [None, [0.5, -0.5, 0.05, -0.05, 0.3, -0.3]])
def test_actor_gradient_matches_finite_differences(offsets):
    policy, batch, _ = _toy_policy_and_batch(seed=13, ratio_offsets=offsets)
    grads = ppo_actor_gradient(policy, batch, 0.2)
    surr = lambda: ppo_surrogate(policy, batch, 0.2)
    rng = _rng(1)
    for li in range(len(policy.actor.weights)):
        w = policy.actor.weights[li]
        for _ in range(4):
            idx = (int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1])))
            numeric = _fd_probe(surr, w, idx)
            analytic = grads.mlp.weights[li][idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom < 1e-4
        bi = int(rng.integers(policy.actor.biases[li].size))
        numeric = _fd_probe(surr, policy.actor.biases[li], (bi,))
        analytic = grads.mlp.biases[li][bi]
        assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8) < 1e-4
    for j in range(policy.log_std.size):
        numeric = _fd_probe(surr, policy.log_std, (j,))
        analytic = grads.log_std[j]
        assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8) < 1e-4


def test_actor_ascent_step_raises_surrogate():
    policy, batch, _ = _toy_policy_and_batch(seed=17)
    before = ppo_surrogate(policy, batch, 0.2)
    grads = ppo_actor_gradient(policy, batch, 0.2)
    lr = 1e-4
    for i in range(len(policy.actor.weights)):
        policy.actor.weights[i] += lr * grads.mlp.weights[i]
        policy.actor.biases[i] += lr * grads.mlp.biases[i]
    policy.log_std = policy.log_std + lr * grads.log_std
    assert ppo_surrogate(policy, batch, 0.2) > before


def test_critic_loss_zero_when_predictions_match():
    policy, batch, _ = _toy_policy_and_batch(
        seed=3, d_steps=2, rewards=[0.0, 0.0], bootstrap=0.0, gamma=1.0
    )
    policy.critic = _zero_mlp((6, 8, 1))
    loss, grads = critic_loss_and_gradient(policy, batch)
    assert loss == 0.0
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.weights)


def test_critic_loss_single_step_example():
    # zero critic, target 1 => summed squared error 1
    policy, batch, _ = _toy_policy_and_batch(
        seed=3, d_steps=1, rewards=[1.0], bootstrap=0.0, gamma=1.0
    )
    policy.critic = _zero_mlp((6, 8, 1))
    loss, _ = critic_loss_and_gradient(policy, batch)
    assert loss == pytest.approx(1.0, abs=1e-15)


def test_critic_gradient_matches_finite_differences():
    policy, batch, _ = _toy_policy_and_batch(seed=19)
    _, grads = critic_loss_and_gradient(policy, batch)
    loss = lambda: critic_loss_and_gradient(policy, batch)[0]
    rng = _rng(2)
    for li in range(len(policy.critic.weights)):
        w = policy.critic.weights[li]
        for _ in range(4):
            idx = (int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1])))
            numeric = _fd_probe(loss, w, idx)
            analytic = grads.weights[li][idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / denom < 1e-4
        bi = int(rng.integers(policy.critic.biases[li].size))
        numeric = _fd_probe(loss, policy.critic.biases[li], (bi,))
        analytic = grads.biases[li][bi]
        assert abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8) < 1e-4


def test_critic_descent_monotone_on_frozen_buffer():
    policy, batch, _ = _toy_policy_and_batch(seed=23)
    losses = []
    for _ in range(25):
        loss, grads = critic_loss_and_gradient(policy, batch)
        losses.append(loss)
        for i in range(len(policy.critic.weights)):
            policy.critic.weights[i] -= 2e-6 * grads.weights[i]
            policy.critic.biases[i] -= 2e-6 * grads.biases[i]
    diffs = np.diff(losses)
    assert np.all(diffs <= 0.0)
    assert losses[-1] < losses[0]


# ---------------------------------------------------------------------------
# one batch per episode: the same bits as the re-stacking form


def _windows(window, rounds):
    """The (prices, allocations) history window before each round and after the last."""
    windows = [window]
    for played in rounds:
        window = tuple(np.vstack([past[1:], now]) for past, now in zip(window, played))
        windows.append(window)
    return windows


def _rounds_hook(rounds):
    """A train on_episode hook appending copies of each round's (prices, allocations) to rounds."""
    def hook(ep, actions, prices, allocations, outcomes):
        rounds.extend(zip(prices.copy(), allocations.copy()))
    return hook


def _rollout_policy_and_batch(seed, steps=24):
    """A batch of steps taken in the environment, the way train takes them."""
    scenario, cfg, state = _fresh_state(seed)
    rng = _rng(seed + 100)
    policy = _init_policy(state, cfg, TrainConfig(hidden=(16, 16)), rng)
    noise = learner_mod._noise(policy)
    feats, actions, means, rounds = [], [], [], []
    for _ in range(steps):
        feats.append(_features(state, policy.obs_price_scale))
        action, mean = policy_sample(policy, feats[-1], rng, noise)
        rounds.append(env_step(scenario, cfg, action))
        actions.append(action)
        means.append(mean)
        state = _windows(state, rounds[-1:])[-1]
    feats.append(_features(state, policy.obs_price_scale))
    values = mlp_forward(policy.critic, np.array(feats))[:, 0]
    rewards = episode_outcomes(scenario, cfg, *map(np.array, zip(*rounds))).reward
    log_probs = gaussian_log_prob(np.array(means), policy.log_std, np.array(actions))
    batch = episode_batch(feats[:-1], actions, log_probs, rewards, values, 0.9)
    return policy, batch, float(values[-1])


def _gradcheck_policy_and_batch(seed):
    rng = _rng(seed)
    policy = _toy_policy(rng)
    return (policy, *_toy_batch(policy, rng, 0.9))


_UPDATE_CASES = {  # each gives (policy, batch at gamma 0.9, bootstrap)
    "toy": lambda: _toy_policy_and_batch(seed=13),
    "toy-clipped": lambda: _toy_policy_and_batch(
        seed=13, ratio_offsets=[0.5, -0.5, 0.05, -0.05, 0.3, -0.3]
    ),
    "gradcheck-toy": lambda: _gradcheck_policy_and_batch(3),
    "rollout": lambda: _rollout_policy_and_batch(5),
}


def _assert_update_matches_reference(policy, batch, bootstrap, eps, gamma):
    ref = ppo_reference(policy, batch, bootstrap, eps, gamma)
    for _ in range(2):  # the second round reads the batch again, as every epoch does
        actor = ppo_actor_gradient(policy, batch, eps)
        loss, critic = critic_loss_and_gradient(policy, batch)
        assert ppo_surrogate(policy, batch, eps) == ref["surrogate"]
        assert loss == ref["critic_loss"]
        assert np.array_equal(actor.log_std, ref["log_std"])
        pairs = [
            (actor.mlp.weights, ref["actor_weights"]),
            (actor.mlp.biases, ref["actor_biases"]),
            (critic.weights, ref["critic_weights"]),
            (critic.biases, ref["critic_biases"]),
        ]
        for got, want in pairs:
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("case", sorted(_UPDATE_CASES))
def test_update_equals_restacking_reference_bitwise(case):
    policy, batch, bootstrap = _UPDATE_CASES[case]()
    _assert_update_matches_reference(policy, batch, bootstrap, 0.2, 0.9)
    # move the policy off the sampling one so the ratios leave 1, as in
    # the later inner epochs, and compare again on the same batch
    grads = ppo_actor_gradient(policy, batch, 0.2)
    for i in range(len(policy.actor.weights)):
        policy.actor.weights[i] += 0.05 * grads.mlp.weights[i]
        policy.actor.biases[i] += 0.05 * grads.mlp.biases[i]
    policy.log_std = policy.log_std + 0.05 * grads.log_std
    _assert_update_matches_reference(policy, batch, bootstrap, 0.2, 0.9)


def test_sigmoid_bitwise_equals_masked_form():
    z = np.array(
        [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 40.0, -40.0, 750.0, -750.0, np.nan, -np.nan]
    )
    for shape in ((z.size,), (1, z.size), (z.size, 1)):
        got = learner_mod._sigmoid(z.reshape(shape))
        want = masked_sigmoid(z.reshape(shape))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_batch_is_read_only():
    batch = episode_batch(np.ones((2, 4)), np.zeros((2, 2)), np.zeros(2), [1.0, 0.5],
                          [0.25, 0.5, 2.0], 1.0)
    assert np.array_equal(batch.values, [0.25, 0.5])
    assert np.array_equal(batch.targets, [3.5, 2.5])
    assert np.array_equal(batch.advantages, [3.25, 2.0])
    for arr in (getattr(batch, f.name) for f in dataclasses.fields(batch)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_batch_reflects_add_clear_bootstrap_and_gamma():
    # rewards written in place as train writes its steps, then rewritten
    # by the next episode (the clear)
    rewards = np.array([1.0, 0.5, 0.25])
    first = _batch(rewards[:2], [0.0, 0.0, 2.0], 1.0)
    assert np.array_equal(first.targets, [3.5, 2.5])
    assert np.array_equal(_batch(rewards, [0.0, 0.0, 0.0, 2.0], 1.0).targets, [3.75, 2.75, 2.25])
    assert np.array_equal(_batch(rewards, np.zeros(4), 1.0).targets, [1.75, 0.75, 0.25])
    assert np.array_equal(_batch(rewards, np.zeros(4), 0.5).targets, [1.3125, 0.625, 0.25])

    rewards[0] = 4.0
    after_clear = _batch(rewards[:1], [1.0, 0.0], 1.0)
    assert np.array_equal(after_clear.rewards, [4.0])
    assert np.array_equal(after_clear.advantages, [3.0])
    assert np.array_equal(first.targets, [3.5, 2.5])  # an old batch is not overwritten


def _recorded_batches(monkeypatch):
    """The batches train builds, in order, as it builds them."""
    batches, build = [], learner_mod.episode_batch

    def recording(*args):
        batches.append(build(*args))
        return batches[-1]

    monkeypatch.setattr(learner_mod, "episode_batch", recording)
    return batches


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.uint64)


@pytest.mark.parametrize("steps", [1, 24])
def test_values_and_bootstrap_are_one_batch_pass_bit_for_bit(monkeypatch, steps):
    scenario, env = make_scenario(7, n=3), EnvConfig()
    cfg = TrainConfig(episodes=1, steps_per_batch=steps, hidden=(16, 16), seed=7)
    batches, rounds = _recorded_batches(monkeypatch), []
    train(scenario, env, cfg, on_episode=_rounds_hook(rounds))
    # the policy of the first episode, drawn from train's stream
    rng = _rng(cfg.seed)
    state = env_reset(scenario, env, rng)
    policy = _init_policy(state, env, cfg, rng)
    feats = np.array([_features(w, env.p_max) for w in _windows(state, rounds)])
    want = mlp_forward(policy.critic, feats)[:, 0]
    assert want.shape == (steps + 1,)
    (batch,) = batches
    assert np.array_equal(_bits(batch.features), _bits(feats[:-1]))
    assert np.array_equal(_bits(batch.values), _bits(want[:-1]))
    # the targets end in the bootstrap V(s(D+1)) of the same pass
    assert np.array_equal(batch.targets, learner_mod._targets(batch.rewards, want[-1], cfg.gamma))


@pytest.mark.parametrize("history, n, steps", [(1, 3, 4), (3, 3, 2), (3, 3, 5), (3, 1, 4)])
def test_every_step_observes_the_last_rounds(monkeypatch, history, n, steps):
    """Each step's features are those of the last L rounds, across episode boundaries."""
    scenario, env = make_scenario(5, n=n), EnvConfig(history_rounds=history)
    cfg = TrainConfig(episodes=3, steps_per_batch=steps, update_epochs=1, hidden=(4,), seed=5)
    observed, rounds, sample = [], [], learner_mod.policy_sample

    def recording_sample(policy, feats, rng, noise=None):
        observed.append(np.array(feats))
        return sample(policy, feats, rng, noise)

    monkeypatch.setattr(learner_mod, "policy_sample", recording_sample)
    batches = _recorded_batches(monkeypatch)
    train(scenario, env, cfg, on_episode=_rounds_hook(rounds))
    windows = _windows(env_reset(scenario, env, _rng(cfg.seed)), rounds)
    want = np.array([_features(w, env.p_max) for w in windows[:-1]])
    assert len(observed) == len(want) == cfg.episodes * steps
    assert np.array_equal(_bits(observed), _bits(want))
    assert len(batches) == cfg.episodes
    for ep, batch in enumerate(batches):
        assert np.array_equal(_bits(batch.features), _bits(want[ep * steps:(ep + 1) * steps]))


def test_recorded_log_probs_are_the_gaussian_density_of_the_raw_action():
    policy, batch, _ = _rollout_policy_and_batch(11)
    for feats, action, lp in zip(batch.features, batch.actions, batch.log_probs):
        want = gaussian_log_prob(mlp_forward(policy.actor, feats), policy.log_std, action)
        assert lp == pytest.approx(want, rel=1e-12, abs=0.0)


def test_episode_means_of_finite_steps_are_finite():
    big = np.full((128, 3), np.finfo(float).max)
    assert np.array_equal(step_mean(big), big[0])
    assert step_mean(-big[:, 0]) == -np.finfo(float).max
    steps = _rng(4).uniform(-1.0, 1.0, size=(7, 2))
    assert np.allclose(step_mean(steps), steps.mean(axis=0), rtol=1e-15, atol=1e-16)


def test_train_does_each_episode_step_once(monkeypatch):
    """Per step only what the next observation needs; the rest once per episode.

    The starting window's rounds are conditioned once, and each step
    writes the row of the round it plays.  Each
    step runs the actor alone on its observation (policy_sample) and
    sells the action (env_step), and nothing else: one outcome pass, one
    log-density pass over the rows, one batch, one target loop and one
    batch critic pass (the values and the bootstrap) per episode.  Every
    inner epoch runs one actor and one critic forward pass on the batch,
    whose gradients backpropagate through those passes, so mlp_backward
    is never called.
    """
    names = ("batches", "targets", "rows", "actor", "critic", "critic_batch", "batch", "sample",
             "step", "outcomes", "log_density", "log_prob")
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    forward, round_features = learner_mod.mlp_forward, learner_mod._round_features

    def classified_forward(params, x):
        net = "actor" if params.bounded_output else "critic"
        counts[net if np.ndim(x) == 1 else f"{net}_batch"] += 1
        return forward(params, x)

    def counted_rows(prices, allocations, price_scale, out):
        counts["rows"] += len(np.atleast_2d(prices))
        return round_features(prices, allocations, price_scale, out)

    for name, attr in (("batches", "episode_batch"), ("targets", "_targets"),
                       ("batch", "_forward_cached"),
                       ("sample", "policy_sample"), ("step", "env_step"),
                       ("outcomes", "episode_outcomes"), ("log_density", "_log_density"),
                       ("log_prob", "gaussian_log_prob")):
        monkeypatch.setattr(learner_mod, attr, counting(name, getattr(learner_mod, attr)))
    monkeypatch.setattr(learner_mod, "_round_features", counted_rows)
    monkeypatch.setattr(learner_mod, "mlp_forward", classified_forward)

    def no_recomputed_forward(*args):
        raise AssertionError("the update must reuse its forward pass")

    monkeypatch.setattr(learner_mod, "mlp_backward", no_recomputed_forward)
    env, cfg = EnvConfig(), TrainConfig(**_SMALL)
    train(make_scenario(3, n=3), env, cfg)
    eps, steps, epochs = cfg.episodes, cfg.steps_per_batch, cfg.update_epochs
    assert counts["batches"] == eps and counts["targets"] == eps
    # every round observed once: the starting window's L, then one per step
    assert counts["rows"] == env.history_rounds + eps * steps
    # per step one draw, one single-state actor pass and one sale; no single-state critic pass
    assert counts["sample"] == counts["step"] == counts["actor"] == eps * steps
    assert counts["critic"] == 0
    # the rounds scored and the raw actions' densities taken once per episode
    assert counts["outcomes"] == counts["log_prob"] == eps
    # that density pass, then one in each inner epoch's actor gradient and in the final surrogate
    assert counts["log_density"] == eps * (1 + epochs + 1)
    # one batch critic pass per episode for the values and the bootstrap
    assert counts["critic_batch"] == eps
    # that pass, two batch passes per inner epoch and the final surrogate
    assert counts["batch"] == eps * (1 + 2 * epochs + 1)


def test_the_batch_and_the_critic_pass_share_one_copy_of_the_features(monkeypatch):
    critic_inputs, forward = [], learner_mod.mlp_forward

    def recording_forward(params, x):
        if not params.bounded_output:
            critic_inputs.append(x)
        return forward(params, x)

    monkeypatch.setattr(learner_mod, "mlp_forward", recording_forward)
    batches = _recorded_batches(monkeypatch)
    train(make_scenario(3, n=3), EnvConfig(), TrainConfig(**_SMALL))
    assert len(critic_inputs) == len(batches) == _SMALL["episodes"]
    for feats, batch in zip(critic_inputs, batches):
        assert not feats.flags.writeable and feats.flags.c_contiguous
        assert batch.features.base is feats and np.shares_memory(batch.features, feats)
        assert np.array_equal(batch.features, feats[:-1])


def test_batch_keeps_read_only_features_and_copies_the_rest():
    feats = np.ones((3, 4))
    copied = episode_batch(feats, np.zeros((2, 2)), np.zeros(2), [1.0, 0.5], np.zeros(3), 1.0)
    assert not np.shares_memory(copied.features, feats) and feats.flags.writeable
    feats.flags.writeable = False
    actions = np.zeros((2, 2))
    kept = episode_batch(feats[:2], actions, np.zeros(2), [1.0, 0.5], np.zeros(3), 1.0)
    assert kept.features.base is feats
    assert not np.shares_memory(kept.actions, actions) and actions.flags.writeable


# ---------------------------------------------------------------------------
# training loop


_SMALL = dict(episodes=4, steps_per_batch=16, update_epochs=3, hidden=(8,), seed=5)


def test_train_is_deterministic():
    scenario = make_scenario(3, n=3)
    env_cfg = EnvConfig()
    cfg = TrainConfig(**_SMALL)
    p1, t1 = train(scenario, env_cfg, cfg)
    p2, t2 = train(scenario, env_cfg, cfg)
    assert len(t1) == len(t2) == cfg.episodes
    for a, b in zip(t1, t2):
        assert a.mean_reward == b.mean_reward
        assert a.mean_sp_payoff == b.mean_sp_payoff
        assert a.actor_objective == b.actor_objective
        assert a.critic_loss == b.critic_loss
        assert np.array_equal(a.mean_price, b.mean_price)
        assert np.array_equal(a.mean_allocation, b.mean_allocation)
        assert np.array_equal(a.mean_mu_payoff, b.mean_mu_payoff)
    for w1, w2 in zip(p1.actor.weights, p2.actor.weights):
        assert np.array_equal(w1, w2)
    assert np.array_equal(p1.log_std, p2.log_std)


def test_train_seed_changes_trace():
    scenario = make_scenario(3, n=3)
    cfg_a = TrainConfig(**_SMALL)
    cfg_b = TrainConfig(**{**_SMALL, "seed": 6})
    _, ta = train(scenario, EnvConfig(), cfg_a)
    _, tb = train(scenario, EnvConfig(), cfg_b)
    assert ta[0].mean_reward != tb[0].mean_reward


def test_train_on_episode_sees_every_round_in_order():
    scenario, env = make_scenario(3, n=3), EnvConfig()
    cfg = TrainConfig(**_SMALL)
    seen, rewards = [], []

    def hook(ep, actions, prices, allocations, outcomes):
        seen.append(ep)
        rewards.append(outcomes.reward.copy())
        assert actions.shape == prices.shape == allocations.shape == (cfg.steps_per_batch, 3)
        # the executed prices are the raw actions clamped, and the sales the responses to them
        assert np.array_equal(_bits(prices), _bits(np.clip(actions, 0.0, env.p_max)))
        assert np.array_equal(allocations, [respond(scenario, p) for p in prices])
        assert np.array_equal(outcomes.sp_payoff,
                              episode_outcomes(scenario, env, prices, allocations).sp_payoff)

    _, trace = train(scenario, env, cfg, on_episode=hook)
    assert seen == list(range(1, cfg.episodes + 1))
    for ep_stats, r in zip(trace, rewards, strict=True):
        assert ep_stats.mean_reward == float(step_mean(r))


def test_train_log_std_respects_clamp():
    scenario = make_scenario(3, n=3)
    policy, _ = train(scenario, EnvConfig(), TrainConfig(**_SMALL))
    assert np.all(policy.log_std >= LOG_STD_MIN - 1e-15)
    assert np.all(policy.log_std <= LOG_STD_MAX + 1e-15)


def test_train_diverges_loudly_on_absurd_critic_rate():
    scenario = make_scenario(3, n=3)
    cfg = TrainConfig(**{**_SMALL, "critic_lr": 1e9, "episodes": 50})
    with pytest.raises(TrainingDiverged) as exc_info:
        with np.errstate(all="ignore"):
            train(scenario, EnvConfig(), cfg)
    err = exc_info.value
    assert err.episode >= 1 and err.inner_epoch >= 1
    assert set(err.snapshot) == {
        "actor_weights",
        "actor_biases",
        "critic_weights",
        "critic_biases",
        "log_std",
    }


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(clip_epsilon=0.0)
    with pytest.raises(ValueError):
        TrainConfig(episodes=0)
    with pytest.raises(ValueError):
        TrainConfig(actor_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(hidden=())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_exact(tmp_path):
    scenario = make_scenario(3, n=3)
    env_cfg = EnvConfig()
    cfg = TrainConfig(**_SMALL)
    policy, _ = train(scenario, env_cfg, cfg)
    path = tmp_path / "ckpt.json"
    save_policy(path, policy, env_cfg, cfg)
    record = assert_checkpoint_holds(path, policy, env_cfg, cfg)
    assert sorted(record["env"]) == ["history_rounds", "p_max", "reward_scale"]
    assert sorted(record["train"]) == sorted(f.name for f in dataclasses.fields(TrainConfig))


# ---------------------------------------------------------------------------
# architectural isolation


def test_learner_never_touches_market_internals():
    """The agent must learn from the public stream only.

    Statically verify the module imports nothing from the market model
    or solvers and never reads private profile fields.
    """
    src = inspect.getsource(learner_mod)
    tree = ast.parse(src)
    banned_modules = {"model", "follower", "leader", "experiments", "cli"}
    banned_attrs = {
        "own_value",
        "unit_cost",
        "capacity",
        "demand",
        "mus",
        "utility_scale",
        "quantile",
        "cdf",
        "pdf",
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = (node.module or "").split(".")[-1]
            assert mod not in banned_modules, f"forbidden import: {node.module}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] not in banned_modules
        elif isinstance(node, ast.Attribute):
            assert node.attr not in banned_attrs, f"forbidden attribute: {node.attr}"
