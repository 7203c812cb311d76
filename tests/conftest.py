import dataclasses
import json

import numpy as np
import pytest

from mcsgame.experiments import ScenarioSpec, generate_scenario
from mcsgame.leader import sp_payoff_gradient
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
    return generate_scenario(ScenarioSpec(n_mus=n, utility_scale=utility_scale), seed)


@pytest.fixture
def five_mu_scenario():
    return make_scenario(11)


def assert_concave_at(scenario: Scenario, p: np.ndarray, h: float = 1e-6):
    """The payoff Hessian at p, as central differences of sp_payoff_gradient, is negative definite.

    Column i differences the gradient compute_se certifies with across
    p_i +- h, so p must lie at least h inside the price box.  The matrix
    must be symmetric (rtol 1e-6), and its symmetric part must have a
    Cholesky factor when negated.
    """
    hess = np.empty((scenario.n, scenario.n))
    for i in range(scenario.n):
        e = np.zeros(scenario.n)
        e[i] = h
        hess[:, i] = (sp_payoff_gradient(scenario, p + e)
                      - sp_payoff_gradient(scenario, p - e)) / (2.0 * h)
    np.testing.assert_allclose(hess, hess.T, rtol=1e-6, atol=0.0)
    np.linalg.cholesky(-0.5 * (hess + hess.T))  # raises LinAlgError unless negative definite


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.uint64)


def _same_bits(got, want):
    """Equal floats, bit for bit; a NaN matches any NaN, as JSON keeps no NaN's sign or payload."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got[~nan]), _bits(want[~nan]))


def policy_record(policy):
    """The record policy's arrays should be written as, each weight matrix flattened row by row."""
    nets = {key: {"shapes": [list(W.shape) for W in net.weights],
                  "weights": [W.ravel() for W in net.weights], "biases": list(net.biases)}
            for key, net in (("actor", policy.actor), ("critic", policy.critic))}
    return {"log_std": policy.log_std, **nets}


def assert_record_holds(record, want):
    """A policy record read from JSON holds want, a record of the same layout, number for number.

    Both are {actor, critic, log_std}, a network being {shapes, weights, biases};
    every float must keep its bits, infinities included, and a NaN stay a NaN.
    """
    assert sorted(record) == sorted(want) == ["actor", "critic", "log_std"]
    _same_bits(record["log_std"], want["log_std"])
    for key in ("actor", "critic"):
        rec, net = record[key], want[key]
        assert sorted(rec) == sorted(net) == ["biases", "shapes", "weights"]
        assert rec["shapes"] == [list(shape) for shape in net["shapes"]]
        for part in ("weights", "biases"):
            assert len(rec[part]) == len(net[part]) == len(rec["shapes"])
            for got, expected in zip(rec[part], net[part]):
                _same_bits(got, expected)


def assert_checkpoint_holds(path, policy, env_config, train_config):
    """checkpoint.json at path holds policy and both configs, every number bit for bit."""
    record = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(record) == ["actor", "critic", "env", "format", "log_std", "train", "version"]
    assert (record["format"], record["version"]) == ("mcsgame-policy", 3)
    for key, cfg in (("env", env_config), ("train", train_config)):
        # a tuple field is a JSON list; every float reads back to its bits
        assert record[key] == json.loads(json.dumps(dataclasses.asdict(cfg))), key
    # p_max is held once, in the env section
    assert _bits(record["env"]["p_max"]) == _bits(policy.p_max)
    assert_record_holds({key: record[key] for key in ("actor", "critic", "log_std")},
                        policy_record(policy))
    return record
