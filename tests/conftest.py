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
