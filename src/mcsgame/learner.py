"""PPO pricing agent built directly on numpy.

The actor maps the observed history window to a diagonal Gaussian over
price profiles: a small tanh network outputs the mean through a
sigmoid scaled to (0, p_max), and a state-independent learnable log
standard deviation controls exploration.  The critic is a second tanh
network with a linear scalar head.  Both are updated by plain gradient
steps computed by hand; there is no autograd, optimizer state, GAE,
entropy bonus or mini-batching.

Each episode's work is done once.  A rollout step observes its state
once, runs only the actor, and writes the step in place into a
TrajectoryBuffer and the episode's columns (one reduction each for the
means).  The critic, which chooses no action and is fixed during the
rollout, then makes one batch pass over the recorded states and the
next one for the values and the bootstrap V(s(D+1)).  The buffer builds
one read-only EpisodeBatch from them, which every inner update epoch
and the final surrogate read and backpropagate through.

A network's weights and biases are views into one float64 vector, and
train writes each network's gradients into one such vector allocated
per call, so a parameter step is one array operation.  The rollout
evaluates single states as W @ h per layer, with no batch axis.

This module sees the game only through dynamics.env_reset/env_step and
the (state, reward) stream they produce.  It never imports the market
model and never reads user profile fields, so the agent cannot peek at
capacities, valuations, costs or demand laws.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import MAX_COUNT, EnvConfig, GameState, env_reset, env_step
from .reporting import write_json

__all__ = [
    "MlpParams",
    "MlpGrads",
    "ActorGrads",
    "PolicyParams",
    "TrainConfig",
    "TrajectoryBuffer",
    "EpisodeBatch",
    "EpisodeStats",
    "TrainingDiverged",
    "mlp_init",
    "mlp_forward",
    "mlp_backward",
    "observe",
    "gaussian_log_prob",
    "policy_sample",
    "clip_ratio",
    "ppo_surrogate",
    "ppo_actor_gradient",
    "critic_loss_and_gradient",
    "train",
    "save_policy",
    "load_policy",
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


def _pack(layers: MlpParams | MlpGrads) -> MlpParams | MlpGrads:
    """Copy the weights, then the biases, into one new vector; leave views of it in their place."""
    arrays = [*layers.weights, *layers.biases]
    layers.vector = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
    parts = np.split(layers.vector, np.cumsum([a.size for a in arrays[:-1]]))
    views = [part.reshape(a.shape) for part, a in zip(parts, arrays)]
    layers.weights, layers.biases = views[: len(layers.weights)], views[len(layers.weights):]
    return layers


@dataclass
class MlpParams:
    """Dense layers with tanh hidden activations.

    weights[i] has shape (fan_out, fan_in).  With bounded_output the
    last layer goes through a sigmoid scaled by output_scale, otherwise
    it is linear.  The constructor copies the weights and biases into
    ``vector`` and keeps views of it (see _pack).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    bounded_output: bool = False
    output_scale: float = 1.0
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty, same length")
        for W, b in zip(self.weights, self.biases):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ValueError("layer shapes are inconsistent")
        _pack(self)


@dataclass
class MlpGrads:
    """Parameter gradients, same shapes as the owning MlpParams; _grads_for packs them."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    vector: np.ndarray | None = field(default=None, repr=False, compare=False)


def _grads_for(params: MlpParams) -> MlpGrads:
    """A gradient packed like params, for _backprop to overwrite."""
    return _pack(MlpGrads(params.weights, params.biases))


def mlp_init(
    sizes: tuple[int, ...],
    rng: np.random.Generator,
    bounded_output: bool = False,
    output_scale: float = 1.0,
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
    return MlpParams(weights, biases, bounded_output, output_scale)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # With e = exp(-|z|), which cannot overflow, this is 1/(1+e) for
    # z >= 0 and e/(1+e) otherwise: the textbook form on each half-line.
    # minimum(z, -z) rather than -abs(z) keeps the sign of a NaN, so a
    # NaN input gives the same bits as exp(z)/(1+exp(z)) would.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Forward pass that also returns what the backward pass needs."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    acts = [a]
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.tanh(a @ W.T + b)
        acts.append(a)
    z = a @ params.weights[-1].T + params.biases[-1]
    if params.bounded_output:
        out = params.output_scale * _sigmoid(z)
    else:
        out = z
    return out, acts


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the network on one input (in,) or a batch (B, in).

    One input takes W @ h per layer; on OpenBLAS, which runs a one-row
    matrix product as a matrix-vector one, the bits equal the batch row.
    """
    if np.ndim(x) != 1:
        return _forward_cached(params, x)[0]
    h = np.asarray(x, dtype=float)
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.tanh(W @ h + b)
    z = params.weights[-1] @ h + params.biases[-1]
    return params.output_scale * _sigmoid(z) if params.bounded_output else z


def _backprop(params: MlpParams, out: np.ndarray, acts: list, upstream, into=None) -> MlpGrads:
    """Parameter gradients from a forward pass already computed by _forward_cached.

    They are written into the arrays of ``into`` if given, else new ones.
    """
    up = np.atleast_2d(np.asarray(upstream, dtype=float))
    if up.shape != out.shape:
        raise ValueError(f"upstream shape {up.shape} does not match output {out.shape}")
    if params.bounded_output:
        s = out / params.output_scale
        dz = up * params.output_scale * s * (1.0 - s)
    else:
        dz = up
    layers = len(params.weights)
    grads = MlpGrads([None] * layers, [None] * layers) if into is None else into
    gw, gb = grads.weights, grads.biases
    for i in range(layers - 1, -1, -1):
        gw[i] = np.matmul(dz.T, acts[i], out=gw[i])  # out=None allocates
        gb[i] = dz.sum(axis=0, out=gb[i])
        if i > 0:
            da = dz @ params.weights[i]
            dz = da * (1.0 - acts[i] ** 2)  # tanh'
    return grads


def mlp_backward(params: MlpParams, x, upstream) -> MlpGrads:
    """Backpropagate d(loss)/d(output) to parameter gradients.

    A batched upstream (B, out) yields gradients summed over the batch.
    The forward pass is computed from x, so the call is self-contained;
    the PPO gradients below reuse their own forward pass instead.
    """
    return _backprop(params, *_forward_cached(params, x), upstream)


# ---------------------------------------------------------------------------
# Gaussian policy


@dataclass
class PolicyParams:
    """Actor network, exploration scale and critic network."""

    actor: MlpParams
    log_std: np.ndarray
    critic: MlpParams
    obs_price_scale: float

    def all_finite(self) -> bool:
        arrays = (self.actor.vector, self.critic.vector, self.log_std)
        return all(np.isfinite(a).all() for a in arrays)


def observe(state: GameState, price_scale: float) -> np.ndarray:
    """Condition the raw window for the networks.

    Prices are divided by the public cap and allocations squashed by
    log1p so every feature lands in a tanh-friendly range.  Uses only
    publicly observed quantities.
    """
    rounds = np.concatenate(
        [state.prices / price_scale, np.log1p(state.allocations)], axis=1
    )
    return rounds.reshape(-1)


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray, action: np.ndarray) -> float:
    """Log density of a diagonal Gaussian at the given action."""
    z = (np.asarray(action) - mean) / np.exp(log_std)
    return float((-0.5 * _LOG_2PI - log_std - 0.5 * z * z).sum())


def _noise(policy: PolicyParams) -> tuple[np.ndarray, np.ndarray]:
    """The policy's standard deviations and per-dimension log-density constants."""
    return np.exp(policy.log_std), -0.5 * _LOG_2PI - policy.log_std


def policy_sample(policy: PolicyParams, feats: np.ndarray, rng: np.random.Generator,
                  noise: tuple[np.ndarray, np.ndarray] | None = None):
    """Draw an action for the observed features and report its log density.

    feats is observe(state, policy.obs_price_scale); noise is _noise(policy),
    which train computes once per episode, as only the update moves log_std.
    The density is of the raw sample: the environment clamps prices
    itself, and a density of the clamped price would bias the PPO ratios.
    """
    mean = mlp_forward(policy.actor, feats)
    std, log_norm = noise or _noise(policy)
    action = mean + std * rng.standard_normal(mean.size)
    # gaussian_log_prob(mean, policy.log_std, action), expression for expression
    z = (action - mean) / std
    return action, float((log_norm - 0.5 * z * z).sum())


# ---------------------------------------------------------------------------
# trajectory buffer and PPO pieces


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


class TrajectoryBuffer:
    """On-policy records of the current episode, cleared every episode.

    Steps are written in place into arrays sized for ``capacity`` steps;
    batch() turns the filled rows and their values into an EpisodeBatch.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.size = 0
        # widths are set by the first add; values() puts s(D+1) in the spare feature row
        self._features = np.empty((self.capacity + 1, 0))
        self._actions = np.empty((self.capacity, 0))
        self._log_probs = np.empty(self.capacity)
        self._rewards = np.empty(self.capacity)

    def add(self, feats, action, log_prob, reward):
        """Write one step; the first add after a clear sets the feature and action shapes."""
        k = self.size
        if k >= self.capacity:
            raise ValueError("buffer is full")
        if k == 0:
            self._features = np.empty((self.capacity + 1, *np.shape(feats)))
            self._actions = np.empty((self.capacity, *np.shape(action)))
        # a row of another shape then fails to broadcast (ValueError)
        self._features[k] = feats
        self._actions[k] = action
        self._log_probs[k] = log_prob
        self._rewards[k] = reward
        self.size = k + 1

    def clear(self):
        self.size = 0

    def values(self, critic: MlpParams, next_feats) -> np.ndarray:
        """V of every recorded state, then V(next_feats): one batch pass of the critic."""
        self._features[self.size] = next_feats
        return mlp_forward(critic, self._features[: self.size + 1])[:, 0]

    def stacked(self):
        """Read-only copies of (features, actions, log_probs, rewards)."""
        if self.size == 0:
            raise ValueError("buffer is empty")
        records = (self._features, self._actions, self._log_probs, self._rewards)
        return _read_only(*(arr[: self.size].copy() for arr in records))

    def batch(self, values, gamma: float) -> EpisodeBatch:
        """The episode's batch for V of each recorded state, then V(s(D+1)), and discount gamma."""
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        feats, actions, log_probs, rewards = self.stacked()
        values = np.array(values, dtype=float)
        if values.shape != (self.size + 1,):
            raise ValueError(f"need {self.size + 1} values, got shape {values.shape}")
        values, targets = values[:-1], _targets(rewards, float(values[-1]), gamma)
        return EpisodeBatch(
            feats, actions, log_probs, rewards, *_read_only(values, targets, targets - values)
        )


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
    return np.clip(f, 1.0 - epsilon, 1.0 + epsilon)


def _ratio_pieces(policy: PolicyParams, batch: EpisodeBatch):
    mean, acts = _forward_cached(policy.actor, batch.features)
    std, log_norm = _noise(policy)
    z = (batch.actions - mean) / std
    logp_now = np.sum(log_norm - 0.5 * z * z, axis=1)
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

    mlp: MlpGrads
    log_std: np.ndarray


def ppo_actor_gradient(policy: PolicyParams, batch: EpisodeBatch, epsilon: float,
                       into: MlpGrads | None = None) -> ActorGrads:
    """Gradient of the clipped surrogate w.r.t. actor weights and log_std.

    The actor network's gradient is written into ``into`` if given.

    Each step contributes advantage * ratio * grad(log pi) while its
    unclipped branch is active or the ratio sits inside the clip band;
    once the min saturates at a clipped constant the contribution is
    exactly zero.
    """
    mean, acts, std, z, f = _ratio_pieces(policy, batch)
    adv = batch.advantages
    unclipped = f * adv
    clipped = clip_ratio(f, epsilon) * adv
    active = (unclipped <= clipped) | ((f >= 1.0 - epsilon) & (f <= 1.0 + epsilon))
    coef = np.where(active, unclipped, 0.0)
    upstream_mean = coef[:, None] * z / std
    mlp_grads = _backprop(policy.actor, mean, acts, upstream_mean, into)
    log_std_grad = np.sum(coef[:, None] * (z * z - 1.0), axis=0)
    return ActorGrads(mlp_grads, log_std_grad)


def critic_loss_and_gradient(policy: PolicyParams, batch: EpisodeBatch,
                             into: MlpGrads | None = None) -> tuple[float, MlpGrads]:
    """Summed squared error of the critic against fixed return targets, and its gradient.

    The gradient is written into ``into`` if given.
    """
    out, acts = _forward_cached(policy.critic, batch.features)
    resid = out[:, 0] - batch.targets
    loss = float(np.sum(resid * resid))
    grads = _backprop(policy.critic, out, acts, (2.0 * resid)[:, None], into)
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
    """Raised when any parameter stops being finite during training."""

    def __init__(self, message: str, episode: int, inner_epoch: int, snapshot: dict):
        super().__init__(message)
        self.episode = episode
        self.inner_epoch = inner_epoch
        self.snapshot = snapshot


def _init_policy(state: GameState, env_config: EnvConfig, cfg: TrainConfig, rng) -> PolicyParams:
    n = state.n_mus
    in_dim = observe(state, env_config.p_max).size
    actor = mlp_init(
        (in_dim, *cfg.hidden, n),
        rng,
        bounded_output=True,
        output_scale=env_config.p_max,
        out_weight_std=0.01,
    )
    critic = mlp_init((in_dim, *cfg.hidden, 1), rng, out_weight_std=0.01)
    log_std = np.full(n, float(cfg.log_std_init))
    return PolicyParams(actor, log_std, critic, env_config.p_max)


def _snapshot(policy: PolicyParams) -> dict:
    return {
        "actor_weights": [W.tolist() for W in policy.actor.weights],
        "actor_biases": [b.tolist() for b in policy.actor.biases],
        "critic_weights": [W.tolist() for W in policy.critic.weights],
        "critic_biases": [b.tolist() for b in policy.critic.biases],
        "log_std": policy.log_std.tolist(),
    }


def _mean(column: np.ndarray) -> np.ndarray:
    """Mean over the steps (axis 0), each scaled before the sum so finite steps give a finite mean."""
    return np.sum(column / len(column), axis=0)


def train(scenario, env_config: EnvConfig, train_config: TrainConfig, on_step=None):
    """Run the PPO loop and return (policy, per-episode trace).

    One RNG stream, seeded by train_config.seed, drives the initial
    history, the weight init and every action draw, so the trace is a
    pure function of (scenario, env_config, train_config).  The state
    carries over between episodes; only the buffer is cleared.

    on_step, if given, is called as on_step(episode, step, transition)
    after every environment step.  It observes only; it must not touch
    the RNG or the policy.
    """
    cfg = train_config
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    state = env_reset(scenario, env_config, rng)
    policy = _init_policy(state, env_config, cfg, rng)
    buffer = TrajectoryBuffer(cfg.steps_per_batch)
    actor_grads, critic_grads = _grads_for(policy.actor), _grads_for(policy.critic)
    trace: list[EpisodeStats] = []
    d, n = cfg.steps_per_batch, state.n_mus
    # the episode's columns, one row per step, overwritten every episode
    sp_payoffs = np.empty(d)
    prices, allocations, mu_payoffs = (np.empty((d, n)) for _ in range(3))
    # observed once per state: by the step that acts on it, or by the values pass after the last
    feats = observe(state, policy.obs_price_scale)

    for ep in range(1, cfg.episodes + 1):
        buffer.clear()
        noise = _noise(policy)
        for k in range(d):
            action, log_prob = policy_sample(policy, feats, rng, noise)
            tr = env_step(scenario, env_config, state, action)
            if on_step is not None:
                on_step(ep, k + 1, tr)
            buffer.add(feats, action, log_prob, tr.reward)
            state = tr.next_state
            feats = observe(state, policy.obs_price_scale)
            sp_payoffs[k] = tr.sp_payoff
            prices[k] = tr.action
            allocations[k] = state.allocations[-1]
            mu_payoffs[k] = tr.mu_payoffs
        batch = buffer.batch(buffer.values(policy.critic, feats), cfg.gamma)

        for epoch in range(1, cfg.update_epochs + 1):
            log_std_grad = ppo_actor_gradient(policy, batch, cfg.clip_epsilon, actor_grads).log_std
            critic_loss = critic_loss_and_gradient(policy, batch, critic_grads)[0]
            policy.actor.vector += cfg.actor_lr * actor_grads.vector
            policy.log_std = np.clip(
                policy.log_std + cfg.actor_lr * log_std_grad, LOG_STD_MIN, LOG_STD_MAX
            )
            policy.critic.vector -= cfg.critic_lr * critic_grads.vector
            if not policy.all_finite():
                raise TrainingDiverged(f"non-finite parameter after episode {ep}, inner epoch "
                                       f"{epoch}", ep, epoch, _snapshot(policy))
        trace.append(EpisodeStats(
            ep, float(_mean(batch.rewards)), float(_mean(sp_payoffs)),
            ppo_surrogate(policy, batch, cfg.clip_epsilon), critic_loss,
            _mean(prices), _mean(allocations), _mean(mu_payoffs),
        ))
    return policy, trace


# ---------------------------------------------------------------------------
# checkpoints


def _mlp_record(params: MlpParams) -> dict:
    return {
        "shapes": [list(W.shape) for W in params.weights],
        "weights": [W.reshape(-1).tolist() for W in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "bounded_output": params.bounded_output,
        "output_scale": params.output_scale,
    }


def _mlp_from_record(rec: dict) -> MlpParams:
    weights = [
        np.array(flat, dtype=float).reshape(shape)
        for flat, shape in zip(rec["weights"], rec["shapes"])
    ]
    biases = [np.array(b, dtype=float) for b in rec["biases"]]
    return MlpParams(weights, biases, bool(rec["bounded_output"]), float(rec["output_scale"]))


def save_policy(path, policy: PolicyParams, env_config: EnvConfig, train_config: TrainConfig) -> None:
    """Write a self-describing JSON checkpoint.  Round-trips exactly."""
    record = {
        "format": "mcsgame-policy",
        "version": 2,
        "env": asdict(env_config),
        "train": asdict(train_config),
        "obs_price_scale": policy.obs_price_scale,
        "log_std": policy.log_std.tolist(),
        "actor": _mlp_record(policy.actor),
        "critic": _mlp_record(policy.critic),
    }
    write_json(path, record)


def load_policy(path) -> tuple[PolicyParams, dict]:
    """Read a checkpoint back; returns the policy and the raw record.

    Version 1 checkpoints also carry env.episode_length, a field that
    never had an effect; it is left in the returned record.
    """
    record = json.loads(Path(path).read_text())
    if record.get("format") != "mcsgame-policy" or record.get("version") not in (1, 2):
        raise ValueError("not a recognized policy checkpoint")
    policy = PolicyParams(
        actor=_mlp_from_record(record["actor"]),
        log_std=np.array(record["log_std"], dtype=float),
        critic=_mlp_from_record(record["critic"]),
        obs_price_scale=float(record["obs_price_scale"]),
    )
    return policy, record
