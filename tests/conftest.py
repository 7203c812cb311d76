import dataclasses
import json

import numpy as np
import pytest

from mcsgame.model import MuProfile, Scenario, UniformDemand


@pytest.fixture
def example_mu():
    # the worked example used throughout: uniform[0,25], tau=20, delta=1, c=0
    return MuProfile(capacity=20.0, own_value=1.0, unit_cost=0.0, demand=UniformDemand(0.0, 25.0))


@pytest.fixture
def single_mu_scenario(example_mu):
    return Scenario(utility_scale=50.0, mus=(example_mu,))


def make_scenario(seed: int, n: int = 5, utility_scale: float = 50.0) -> Scenario:
    """Random scenario per the default experiment recipe."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mus = []
    while len(mus) < n:
        cost, value = rng.uniform(0.0, 1.0, size=2)
        if value > cost:
            mus.append(MuProfile(20.0, float(value), float(cost), UniformDemand(0.0, 25.0)))
    return Scenario(utility_scale=utility_scale, mus=tuple(mus))


@pytest.fixture
def five_mu_scenario():
    return make_scenario(11)


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.uint64)


def assert_checkpoint_holds(path, policy, env_config, train_config):
    """checkpoint.json at path holds policy and both configs, every number bit for bit."""
    record = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(record) == ["actor", "critic", "env", "format", "log_std", "obs_price_scale",
                              "train", "version"]
    assert (record["format"], record["version"]) == ("mcsgame-policy", 2)
    for key, cfg in (("env", env_config), ("train", train_config)):
        # a tuple field is a JSON list; every float reads back to its bits
        assert record[key] == json.loads(json.dumps(dataclasses.asdict(cfg))), key
    assert _bits(record["obs_price_scale"]) == _bits(policy.obs_price_scale)
    assert np.array_equal(_bits(record["log_std"]), _bits(policy.log_std))
    for key, net in (("actor", policy.actor), ("critic", policy.critic)):
        rec = record[key]
        assert sorted(rec) == ["biases", "bounded_output", "output_scale", "shapes", "weights"]
        assert rec["shapes"] == [list(W.shape) for W in net.weights]
        for flat, W in zip(rec["weights"], net.weights, strict=True):
            assert np.array_equal(_bits(flat), _bits(W.ravel()))
        for b_rec, b in zip(rec["biases"], net.biases, strict=True):
            assert np.array_equal(_bits(b_rec), _bits(b))
        assert rec["bounded_output"] is net.bounded_output
        assert _bits(rec["output_scale"]) == _bits(net.output_scale)
    return record
