"""Parameter corners of the static game, from 1e-300 to 1e308.

Every configuration is either rejected with ValueError, fails with
FloatingPointError because the solve left the floating-point range, or
solves to finite read-only arrays; through the command line these are
exit 2, exit 4, and exit 0 or 3.  No exception escapes.  A `train`
run whose tables would hold a non-finite cell exits 4 the same way.
"""

import itertools
import warnings
from collections import Counter

import numpy as np
import pytest

from mcsgame.cli import main
from mcsgame.experiments import ScenarioSpec, generate_scenario
from mcsgame.leader import compute_se

_CAPACITIES = (1e-300, 1e-8, 20.0, 1e308)
_DEMAND_HI = (1e-300, 1e-8, 25.0, 1e308)
_UTILITY_SCALES = (1e-300, 50.0, 1e308)
_MARGINS = (5e-324, 1e-300, 1.0, 1e308)


def _outcome(spec_kwargs) -> str:
    try:
        spec = ScenarioSpec(n_mus=3, **spec_kwargs)
    except ValueError:
        return "rejected"
    try:
        res = compute_se(generate_scenario(spec, 0))
    except FloatingPointError:
        return "out of range"
    assert np.isfinite(res.sp_payoff), spec
    assert not np.isnan(res.grad_residual), spec
    for arr in (res.prices, res.allocations, res.mu_payoffs):
        assert arr.dtype == np.float64 and arr.shape == (3,), spec
        assert np.isfinite(arr).all() and not arr.flags.writeable, spec
    return "solved"


@pytest.mark.parametrize("law", ["uniform", "linear"])
def test_corner_grid_never_raises_anything_else(law):
    outcomes = Counter()
    with warnings.catch_warnings():
        # overflow on the way to an infinite result is expected here
        warnings.simplefilter("ignore", RuntimeWarning)
        for cap, hi, scale, margin in itertools.product(
            _CAPACITIES, _DEMAND_HI, _UTILITY_SCALES, _MARGINS
        ):
            outcomes[_outcome(dict(
                capacity=cap, demand_kind=law, demand_hi=hi, utility_scale=scale,
                unit_cost_range=(0.0, 0.0), own_value_range=(margin, margin),
            ))] += 1
    assert set(outcomes) == {"rejected", "out of range", "solved"}


_EXIT_PATHS = {
    "solves": ([], 0),
    "support-too-narrow": (["scenario.demand_hi=1e-300"], 2),
    "margin-underflows": (
        ["scenario.own_value_range=[5e-324,5e-324]", "scenario.unit_cost_range=[0,0]"], 0
    ),
    "tol-out-of-reach": (["solver.tol=1e-300"], 3),
    "payoff-overflows": (["scenario.utility_scale=1e308"], 4),
    "prices-overflow": (["scenario.demand_hi=1e-8", "scenario.own_value_range=[1e300,1e300]"], 4),
    # an infinite response slope meets a zero price gap
    "slope-underflows-at-zero-gap": (
        ["scenario.capacity=1e-300", "scenario.demand_hi=1e308", "scenario.utility_scale=1e-300",
         "scenario.own_value_range=[1e-300,1e-300]", "scenario.unit_cost_range=[0,0]"], 0
    ),
}


@pytest.mark.parametrize("assignments, code", _EXIT_PATHS.values(), ids=_EXIT_PATHS.keys())
def test_static_corner_exit_codes(tmp_path, capsys, assignments, code):
    out = tmp_path / "run"
    sets = [arg for a in assignments for arg in ("--set", a)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["static", "--seed", "0", *sets, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    # commands compute before they write: a failed run leaves no files
    assert out.exists() == (code in (0, 3))
    if code == 4:
        assert "numeric failure" in err and "not finite" in err


_TINY_TRAIN = ["train.episodes=2", "train.steps_per_batch=8", "train.update_epochs=2",
               "train.hidden=[4]", "baseline_steps=10"]
_PRICES_OVERFLOW = ["env.p_max=1e308", "scenario.capacity=1e-300",
                    'scenario.demand_kind="linear"', "train.gamma=1"]
_TRAIN_NON_FINITE = {
    "reward-overflows": (["env.reward_scale=1e308", "env.p_max=1e-300"], "on"),
    "mean-price-overflows": (_PRICES_OVERFLOW, "off"),
    "mean-price-overflows-charted": (_PRICES_OVERFLOW, "on"),
}


@pytest.mark.parametrize("assignments, svg", _TRAIN_NON_FINITE.values(),
                         ids=_TRAIN_NON_FINITE.keys())
def test_train_non_finite_table_exits_4_without_files(tmp_path, capsys, assignments, svg):
    out = tmp_path / "run"
    sets = [arg for a in _TINY_TRAIN + assignments for arg in ("--set", a)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rc = main(["train", "--seed", "0", *sets, "--svg", svg, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert "Traceback" not in err
    assert "numeric failure" in err and "not finite" in err
    assert not out.exists()
