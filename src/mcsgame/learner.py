"""PPO pricing agent built directly on numpy.

The actor maps the observed history window to a diagonal Gaussian over
price profiles: a small tanh network with a linear head gives z, the
policy squashes it to the mean p_max * sigmoid(z) in (0, p_max), and a
state-independent learnable log standard deviation controls
exploration.  The critic is a second tanh network with a linear scalar
head.  Every network is the same plain MLP (MlpParams); the squash and
its derivative belong to the policy code, and PolicyParams.p_max is the
one number that scales both the observed prices and the squash.  Both
networks are updated by plain gradient steps computed by hand; there is
no autograd, optimizer state, GAE, entropy bonus or mini-batching.

A training step does only what the next observation needs.  train
keeps one array of round features, one row per (price, allocation)
round: the prices over p_max, then log1p of the allocations.  A step's
observation of the last L rounds is a view of L consecutive rows.  The
step runs the actor and adds its row of the episode's one noise draw
(policy_sample), sells the action (dynamics.env_step) and writes the
round's row, in Python floats past the actor's matrix products.  The rest
is done once per episode: the rewards and payoffs (episode_outcomes), the
raw actions' log densities (gaussian_log_prob over the rows), and one
critic batch pass, over one read-only copy of the observations and the
next state's, for the values and the bootstrap V(s(D+1)).  The
EpisodeBatch built on that copy serves every update epoch.

A network's weights and biases are views into one float64 vector.  A
gradient is an MlpParams of its network's shapes, so it is packed the
same way; train writes each network's gradients into one allocated per
call, so a parameter step is one array operation.  Products use
ndarray.dot (less per-call cost than @); single states take W.dot(h).

This module sees the game only through dynamics' env_reset (the
starting window's price and allocation arrays), env_step and
episode_outcomes: the (price, allocation, reward) stream.  It never
imports the market model and never reads user profile fields, so the
agent cannot peek at capacities, valuations, costs or demand laws.
save_policy writes the trained policy as JSON in the layout of
_policy_record, which TrainingDiverged also carries; nothing reads it
back.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dynamics import MAX_COUNT, EnvConfig, env_reset, env_step, episode_outcomes, step_mean
from .reporting import write_json

__all__ = [
    "MlpParams",
    "ActorGrads",
    "PolicyParams",
    "TrainConfig",
    "EpisodeBatch",
    "EpisodeStats",
    "TrainingDiverged",
    "mlp_init",
    "mlp_forward",
    "mlp_backward",
    "gaussian_log_prob",
    "policy_sample",
    "episode_batch",
    "clip_ratio",
    "ppo_surrogate",
    "ppo_actor_gradient",
    "critic_loss_and_gradient",
    "train",
    "save_policy",
]

# Floor keeps exploration noise >= e^-3 of the action range.  Lower floors
# let sigma anneal into a regime where the 1/sigma score scaling amplifies
# value-estimate noise faster than the critic can track, and late training
# destabilizes.
LOG_STD_MIN = -3.0
LOG_STD_MAX = 1.0
_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# plain multilayer perceptron


def _pack(layers: MlpParams) -> None:
    """Copy the weights, then the biases, into one new vector; leave views of it in their place."""
    arrays = [*layers.weights, *layers.biases]
    layers.vector = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
    parts = np.split(layers.vector, np.cumsum([a.size for a in arrays[:-1]]))
    views = [part.reshape(a.shape) for part, a in zip(parts, arrays)]
    layers.weights, layers.biases = views[: len(layers.weights)], views[len(layers.weights):]


@dataclass
class MlpParams:
    """Dense layers with tanh hidden activations and a linear output layer.

    weights[i] has shape (fan_out, fan_in).  The constructor copies the
    weights and biases into ``vector`` and keeps views of it (see
    _pack).  A network's gradient is an MlpParams of the same shapes.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty, same length")
        for W, b in zip(self.weights, self.biases):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ValueError("layer shapes are inconsistent")
        _pack(self)


def _grads_for(params: MlpParams) -> MlpParams:
    """A gradient packed like params, for _backprop to overwrite."""
    return MlpParams(params.weights, params.biases)


def mlp_init(
    sizes: tuple[int, ...],
    rng: np.random.Generator,
    out_weight_std: float | None = None,
) -> MlpParams:
    """Gaussian fan-in init; the output layer may use its own std."""
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        std = 1.0 / math.sqrt(fan_in)
        if i == len(sizes) - 2 and out_weight_std is not None:
            std = out_weight_std
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # With e = exp(-|z|), which cannot overflow, this is 1/(1+e) for
    # z >= 0 and e/(1+e) otherwise: the textbook form on each half-line.
    # The numerator exp(min(z, 0)) is exactly 1 for z >= 0 and e
    # otherwise, cheaper than selecting between them.  minimum(z, -z)
    # rather than -abs(z) keeps the sign of a NaN, so a NaN input gives
    # the same bits as exp(z)/(1+exp(z)) would.
    e = np.exp(np.minimum(z, -z))
    return np.exp(np.minimum(z, 0.0)) / (1.0 + e)


def _scaled_sigmoid(z: np.ndarray, scale: float) -> list:
    """scale * _sigmoid(z) bit for bit as floats, for one input's z (N,); e doubles as numerator."""
    return [scale * ((1.0 if v >= 0.0 else e) / (1.0 + e))
            for v, e in zip(z.tolist(), np.exp(np.minimum(z, -z)).tolist())]


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Forward pass of a batch (B, in): the output (B, out) and what _backprop needs."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    acts = [a]
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        a = a.dot(W.T)
        a += b
        np.tanh(a, out=a)
        acts.append(a)
    z = a.dot(params.weights[-1].T)
    z += params.biases[-1]
    return z, acts


def _preactivation(params: MlpParams, h: np.ndarray) -> np.ndarray:
    """The output for one input (in,): W.dot(h), bias and tanh per layer, then the linear head.

    On OpenBLAS these bits equal a batch of one row's, but not that row's in a
    batch of many (128 steps), whose matrix kernel sums in another order: so
    the first update epoch's probability ratios are near 1, not exactly 1.
    """
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        h = W.dot(h)
        h += b
        np.tanh(h, out=h)
    z = params.weights[-1].dot(h)
    z += params.biases[-1]
    return z


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the network on one input (in,) or a batch (B, in); see _preactivation."""
    h = np.asarray(x, dtype=float)
    return _preactivation(params, h) if h.ndim == 1 else _forward_cached(params, h)[0]


def _backprop(params: MlpParams, acts: list, dz: np.ndarray, into=None) -> MlpParams:
    """Parameter gradients from d(loss)/d(output) dz (B, out) and _forward_cached's activations.

    They are written into ``into`` if given, else into a new _grads_for(params).
    """
    grads = _grads_for(params) if into is None else into
    gw, gb = grads.weights, grads.biases
    for i in range(len(gw) - 1, -1, -1):
        np.dot(dz.T, acts[i], out=gw[i])
        dz.sum(axis=0, out=gb[i])
        if i > 0:
            dz = dz.dot(params.weights[i])
            tanh_prime = np.square(acts[i])
            np.subtract(1.0, tanh_prime, out=tanh_prime)
            dz *= tanh_prime
    return grads


def mlp_backward(params: MlpParams, x, upstream) -> MlpParams:
    """Backpropagate d(loss)/d(output) to parameter gradients.

    A batched upstream (B, out) yields gradients summed over the batch.
    The forward pass is computed from x, so the call is self-contained;
    the PPO gradients below reuse their own forward pass instead.
    """
    out, acts = _forward_cached(params, x)
    up = np.atleast_2d(np.asarray(upstream, dtype=float))
    if up.shape != out.shape:
        raise ValueError(f"upstream shape {up.shape} does not match output {out.shape}")
    return _backprop(params, acts, up)


# ---------------------------------------------------------------------------
# Gaussian policy


@dataclass
class PolicyParams:
    """Actor network, exploration scale, critic network and the price cap.

    p_max scales both the observed prices (features hold price / p_max)
    and the squash of the actor's output z to the mean p_max * sigmoid(z).
    """

    actor: MlpParams
    log_std: np.ndarray
    critic: MlpParams
    p_max: float

    def all_finite(self) -> bool:
        arrays = (self.actor.vector, self.critic.vector, self.log_std)
        return all(np.isfinite(a).all() for a in arrays)


def _round_features(prices: list, allocations: list, price_scale: float, out: np.ndarray):
    """Write the features of one round, its prices and sales as lists, into the row out of 2N."""
    n = len(prices)
    out[:n] = [p / price_scale for p in prices]
    np.log1p(allocations, out=out[n:])


def _log_density(action: np.ndarray, mean: np.ndarray, log_std: np.ndarray):
    """Standard deviations, z-scores and log densities of actions (N,) or rows (D, N)."""
    std = np.exp(log_std)
    z = (action - mean) / std
    return std, z, np.sum(-0.5 * _LOG_2PI - log_std - 0.5 * z * z, axis=-1)


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray, action: np.ndarray):
    """Log density of a diagonal Gaussian at an action (N,), a float, or at each row of (D, N)."""
    logp = _log_density(np.asarray(action), mean, log_std)[2]
    return logp if np.ndim(logp) else float(logp)


def policy_sample(policy: PolicyParams, feats: np.ndarray, jitter: list) -> tuple[list, list]:
    """The action for the observed features and its actor mean, as lists of floats.

    feats is a step's observation (train reads it as a view of its round
    rows); jitter is the step's row of exp(log_std) times the episode's one
    (D, N) standard normal draw.  The action is mean + jitter, unclamped:
    train takes the raw samples' log densities, as a clamped price's would bias PPO.
    """
    mean = _scaled_sigmoid(_preactivation(policy.actor, feats), policy.p_max)
    return [m + j for m, j in zip(mean, jitter)], mean


# ---------------------------------------------------------------------------
# episode batch and PPO pieces


@dataclass(frozen=True)
class EpisodeBatch:
    """One episode's stacked records with its return targets and advantages.

    The advantages are the discounted reward-to-go plus bootstrap minus
    the values.  train computes the values and the bootstrap V(s(D+1)) in
    one critic pass after the rollout, under the rollout's parameters, and
    every inner update epoch shares them.  Every array is read-only.
    """

    features: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    targets: np.ndarray
    advantages: np.ndarray


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def episode_batch(features, actions, log_probs, rewards, values, gamma: float) -> EpisodeBatch:
    """One episode's batch: read-only copies of its steps, with targets and advantages.

    Row k of features, actions, log_probs and rewards is step k; values
    holds V of each step's state, then the bootstrap V(s(D+1)).  Read-only
    features are kept, not copied: train's one copy, which the critic read.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    kept = isinstance(features, np.ndarray) and not features.flags.writeable
    features = np.array(features, dtype=float, copy=None if kept else True)
    actions, log_probs, rewards, values = (
        np.array(a, dtype=float) for a in (actions, log_probs, rewards, values)
    )
    if values.shape != (rewards.size + 1,):
        raise ValueError(f"need {rewards.size + 1} values, got shape {values.shape}")
    values, targets = values[:-1], _targets(rewards, float(values[-1]), gamma)
    return EpisodeBatch(*_read_only(features, actions, log_probs, rewards, values, targets,
                                    targets - values))


def _targets(rewards: np.ndarray, bootstrap: float, gamma: float) -> np.ndarray:
    # target(k) = sum_{l>=k} gamma^(l-k) r(l) + gamma^(D+1-k) V(s(D+1))
    out = np.empty(rewards.size)
    acc = bootstrap
    for k in range(rewards.size - 1, -1, -1):
        acc = rewards[k] + gamma * acc
        out[k] = acc
    return out


def clip_ratio(f, epsilon: float):
    """Clamp probability ratios into [1 - epsilon, 1 + epsilon]."""
    # np.clip's values, without its per-call cost
    return np.minimum(np.maximum(f, 1.0 - epsilon), 1.0 + epsilon)


def _ratio_pieces(policy: PolicyParams, batch: EpisodeBatch):
    """The batch's actor means, the actor's activations, std, z-scores and probability ratios."""
    out, acts = _forward_cached(policy.actor, batch.features)
    mean = policy.p_max * _sigmoid(out)
    std, z, logp_now = _log_density(batch.actions, mean, policy.log_std)
    f = np.exp(logp_now - batch.log_probs)
    return mean, acts, std, z, f


def ppo_surrogate(policy: PolicyParams, batch: EpisodeBatch, epsilon: float) -> float:
    """Clipped surrogate objective, summed over the batch."""
    f = _ratio_pieces(policy, batch)[-1]
    adv = batch.advantages
    return float(np.sum(np.minimum(f * adv, clip_ratio(f, epsilon) * adv)))


@dataclass
class ActorGrads:
    """Surrogate gradients for the actor network and log_std vector."""

    mlp: MlpParams
    log_std: np.ndarray


def ppo_actor_gradient(policy: PolicyParams, batch: EpisodeBatch, epsilon: float,
                       into: MlpParams | None = None) -> ActorGrads:
    """Gradient of the clipped surrogate w.r.t. actor weights and log_std.

    The actor network's gradient is written into ``into`` if given.

    Each step contributes advantage * ratio * grad(log pi) while its
    unclipped branch is active or the ratio sits inside the clip band;
    once the min saturates at a clipped constant the contribution is
    exactly zero.  The mean's derivative chains through the squash
    p_max * sigmoid(z), whose slope is p_max * s * (1 - s) at s = mean / p_max.
    """
    mean, acts, std, z, f = _ratio_pieces(policy, batch)
    adv = batch.advantages
    cf = clip_ratio(f, epsilon)
    unclipped = f * adv
    clipped = cf * adv
    # a ratio inside the clip band is its own clip
    active = (unclipped <= clipped) | (cf == f)
    coef = np.where(active, unclipped, 0.0)
    s = mean / policy.p_max
    dz = coef[:, None] * z / std * policy.p_max * s * (1.0 - s)
    mlp_grads = _backprop(policy.actor, acts, dz, into)
    log_std_grad = np.sum(coef[:, None] * (z * z - 1.0), axis=0)
    return ActorGrads(mlp_grads, log_std_grad)


def critic_loss_and_gradient(policy: PolicyParams, batch: EpisodeBatch,
                             into: MlpParams | None = None) -> tuple[float, MlpParams]:
    """Summed squared error of the critic against fixed return targets, and its gradient.

    The gradient is written into ``into`` if given.
    """
    out, acts = _forward_cached(policy.critic, batch.features)
    resid = out[:, 0] - batch.targets
    loss = float(np.sum(resid * resid))
    grads = _backprop(policy.critic, acts, (2.0 * resid)[:, None], into)
    return loss, grads


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    """PPO hyperparameters.  Defaults target the 5-user experiments.

    critic_lr looks small because the critic loss is summed, not
    averaged, over the batch: with D=128 the summed loss has curvature
    roughly D times a single sample's, and rates above ~4e-4 diverge.
    """

    gamma: float = 0.9
    clip_epsilon: float = 0.2
    steps_per_batch: int = 128
    update_epochs: int = 10
    actor_lr: float = 5e-4
    critic_lr: float = 2e-5
    episodes: int = 500
    hidden: tuple[int, ...] = (64, 64)
    log_std_init: float = -1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError("clip_epsilon must lie in (0, 1)")
        if min(self.update_epochs, self.episodes) < 1 or not 1 <= self.steps_per_batch <= MAX_COUNT:
            raise ValueError(
                f"update_epochs and episodes must be >= 1, steps_per_batch in [1, {MAX_COUNT}]"
            )
        if not (0.0 < self.actor_lr < math.inf and 0.0 < self.critic_lr < math.inf):
            raise ValueError("learning rates must be positive and finite")
        if not LOG_STD_MIN <= self.log_std_init <= LOG_STD_MAX:
            raise ValueError(f"log_std_init must lie in [{LOG_STD_MIN}, {LOG_STD_MAX}]")
        if not self.hidden or not 1 <= min(self.hidden) <= max(self.hidden) <= MAX_COUNT:
            raise ValueError(f"hidden sizes must lie in [1, {MAX_COUNT}]")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class EpisodeStats:
    """Per-episode training trace entry."""

    episode: int
    mean_reward: float
    mean_sp_payoff: float
    actor_objective: float
    critic_loss: float
    mean_price: np.ndarray
    mean_allocation: np.ndarray
    mean_mu_payoff: np.ndarray


class TrainingDiverged(RuntimeError):
    """Raised when any parameter stops being finite during training.

    parameters is the policy's record at that point (_policy_record), the
    layout of a checkpoint's actor, critic and log_std.
    """

    def __init__(self, message: str, episode: int, inner_epoch: int, parameters: dict):
        super().__init__(message)
        self.episode = episode
        self.inner_epoch = inner_epoch
        self.parameters = parameters


def _init_policy(in_dim: int, n: int, env_config: EnvConfig, cfg: TrainConfig,
                 rng) -> PolicyParams:
    """Fresh networks for in_dim observed features (two per user and round) and n users."""
    actor = mlp_init((in_dim, *cfg.hidden, n), rng, out_weight_std=0.01)
    critic = mlp_init((in_dim, *cfg.hidden, 1), rng, out_weight_std=0.01)
    log_std = np.full(n, float(cfg.log_std_init))
    return PolicyParams(actor, log_std, critic, env_config.p_max)


def train(scenario, env_config: EnvConfig, train_config: TrainConfig, on_episode=None):
    """Run the PPO loop and return (policy, per-episode trace).

    One RNG stream, seeded by train_config.seed, drives the initial
    history, the weight init and every action draw, so the trace is a
    pure function of (scenario, env_config, train_config).  The round
    history carries over between episodes.

    on_episode, if given, is called as on_episode(episode, actions, prices,
    allocations, outcomes) after each rollout: (D, N) arrays that the next
    episode overwrites, and the dynamics.Outcomes.  It observes only.
    """
    cfg = train_config
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    start_prices, start_allocations = env_reset(scenario, env_config, rng)
    d, (history, n) = cfg.steps_per_batch, start_prices.shape
    policy = _init_policy(2 * start_prices.size, n, env_config, cfg, rng)
    actor_grads, critic_grads = _grads_for(policy.actor), _grads_for(policy.critic)
    trace: list[EpisodeStats] = []
    scale = policy.p_max
    # one feature row per round, oldest first; step k observes rows k .. k + L - 1
    rounds = np.empty((history + d, 2 * n))
    for row, p, x in zip(rounds, start_prices.tolist(), start_allocations.tolist()):
        _round_features(p, x, scale, row)
    # row k is step k's observation, row d that of the state after the episode
    observations = as_strided(rounds, (d + 1, history * 2 * n),
                              (rounds.strides[0], rounds.itemsize), writeable=False)
    # step k reads observation row k and writes round row L + k: their views, made once
    step_rows = list(zip(observations, rounds[history:]))
    # the episode's arrays, one row per step, overwritten every episode
    actions, means, prices, allocations = (np.empty((d, n)) for _ in range(4))

    # an overflow in a rollout or an update leaves a non-finite value or
    # parameter, which the table check or all_finite turns into exit 4;
    # numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for ep in range(1, cfg.episodes + 1):
            jitter = (np.exp(policy.log_std) * rng.standard_normal((d, n))).tolist()
            for k, (observed, row) in enumerate(step_rows):
                actions[k], means[k] = drawn = policy_sample(policy, observed, jitter[k])
                p, x = prices[k], allocations[k] = env_step(scenario, env_config, drawn[0])
                _round_features(p, x, scale, row)
            outcomes = episode_outcomes(scenario, env_config, prices, allocations)
            if on_episode is not None:
                on_episode(ep, actions, prices, allocations, outcomes)
            features = _read_only(observations.copy())[0]
            rounds[:history] = rounds[d:]
            log_probs = gaussian_log_prob(means, policy.log_std, actions)
            batch = episode_batch(features[:d], actions, log_probs, outcomes.reward,
                                  mlp_forward(policy.critic, features)[:, 0], cfg.gamma)

            for epoch in range(1, cfg.update_epochs + 1):
                log_std_grad = ppo_actor_gradient(policy, batch, cfg.clip_epsilon,
                                                  actor_grads).log_std
                critic_loss = critic_loss_and_gradient(policy, batch, critic_grads)[0]
                policy.actor.vector += cfg.actor_lr * actor_grads.vector
                # np.clip's values, without its per-call cost
                policy.log_std = np.minimum(np.maximum(
                    policy.log_std + cfg.actor_lr * log_std_grad, LOG_STD_MIN), LOG_STD_MAX)
                policy.critic.vector -= cfg.critic_lr * critic_grads.vector
                if not policy.all_finite():
                    raise TrainingDiverged(f"non-finite parameter after episode {ep}, inner "
                                           f"epoch {epoch}", ep, epoch, _policy_record(policy))
            trace.append(EpisodeStats(
                ep, float(step_mean(outcomes.reward)), float(step_mean(outcomes.sp_payoff)),
                ppo_surrogate(policy, batch, cfg.clip_epsilon), critic_loss,
                step_mean(prices), step_mean(allocations), step_mean(outcomes.mu_payoffs),
            ))
    return policy, trace


# ---------------------------------------------------------------------------
# checkpoints


def _mlp_record(params: MlpParams) -> dict:
    return {
        "shapes": [list(W.shape) for W in params.weights],
        "weights": [W.reshape(-1).tolist() for W in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def _policy_record(policy: PolicyParams) -> dict:
    """The policy's parameters as JSON values; p_max is the env config's."""
    return {"actor": _mlp_record(policy.actor), "critic": _mlp_record(policy.critic),
            "log_std": policy.log_std.tolist()}


def save_policy(path, policy: PolicyParams, env_config: EnvConfig, train_config: TrainConfig) -> None:
    """Write a self-describing JSON checkpoint; every float in it reads back to its bits."""
    write_json(path, {"format": "mcsgame-policy", "version": 3, "env": asdict(env_config),
                      "train": asdict(train_config), **_policy_record(policy)})
