"""Fuzz every command's --set space through cli.main, in process.

Whatever the overrides, a run exits 0, 2, 3 or 4 and no exception
escapes.  A config error (2) writes nothing; a numeric failure (4)
writes nothing or only the divergence snapshot; a successful run's CSV
cells are finite wherever they are numbers.  Every count is drawn small,
so no example trains or solves for long.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcsgame.cli import main

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -1e308, 1e-300, 1e308, math.inf, -math.inf, math.nan]),
    st.floats(0.0, 2.0),
    st.floats(-50.0, 100.0),
)
_RANGES = st.lists(_FLOATS, min_size=0, max_size=3)


# every field a --set can reach, with the values it is drawn from
_FIELDS = {
    "seed": st.integers(-1, 2**64),
    "scenario.capacity": _FLOATS,
    "scenario.demand_kind": st.sampled_from(["uniform", "linear", "normal"]),
    "scenario.demand_lo": _FLOATS,
    "scenario.demand_hi": _FLOATS,
    "scenario.unit_cost_range": _RANGES,
    "scenario.own_value_range": _RANGES,
    "scenario.utility_scale": _FLOATS,
    "env.reward_scale": _FLOATS,
    "env.p_max": _FLOATS,
    "solver.tol": _FLOATS,
    "train.gamma": _FLOATS,
    "train.clip_epsilon": _FLOATS,
    "train.actor_lr": _FLOATS,
    "train.critic_lr": _FLOATS,
    "train.log_std_init": _FLOATS,
    "train.seed": st.integers(-1, 2**64),
    # later flags win, so these override a drawn count with an invalid one
    "scenario.n_mus": st.sampled_from([0, -1, 2.5, True]),
    "train.episodes": st.sampled_from([0, -1, 2.5, True]),
    "train.hidden": st.sampled_from([[], [0], [2.5], 4]),
    "sweep.values": st.lists(_FLOATS, max_size=5),
}

# set on every example: the counts, so that none is left at its
# (large) default, and a sweep
_BASE = {
    "scenario.n_mus": st.integers(1, 30),
    "env.history_rounds": st.integers(1, 4),
    "train.episodes": st.integers(1, 2),
    "train.steps_per_batch": st.integers(1, 4),
    "train.update_epochs": st.integers(1, 2),
    "train.hidden": st.lists(st.integers(1, 8), min_size=1, max_size=2),
    "baseline_steps": st.integers(1, 10),
    "sweep.axis": st.sampled_from(["delta", "cost", "demand_upper", "lambda", "width"]),
    "sweep.values": st.lists(st.floats(0.0, 100.0), min_size=2, max_size=5),
}


def _assignment(key: str, strategy):
    return strategy.map(lambda v: f"{key}={json.dumps(v)}")


_OVERRIDES = st.tuples(
    *(_assignment(k, s) for k, s in _BASE.items()),
    st.lists(st.sampled_from(sorted(_FIELDS)).flatmap(lambda k: _assignment(k, _FIELDS[k])),
             max_size=4),
).map(lambda t: [*t[:-1], *t[-1]])

_UNSATISFIABLE = ["scenario.unit_cost_range=[0,1]", "scenario.own_value_range=[0,1e-6]"]
_SMALL_TRAIN = ["train.episodes=1", "train.steps_per_batch=2", "baseline_steps=2"]


def _numeric_cells_finite(out: str) -> None:
    for name in os.listdir(out):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(out, name), newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                for cell in row:
                    try:
                        v = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(v), (name, row)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(command=st.sampled_from(["static", "train", "sweep", "gradcheck"]), overrides=_OVERRIDES)
@example(command="static", overrides=_UNSATISFIABLE)
@example(command="train", overrides=[*_UNSATISFIABLE, *_SMALL_TRAIN])
@example(command="static", overrides=["scenario.capacity=" + "[" * 50_000 + "]" * 50_000])
def test_every_set_space_exits_with_a_documented_code(command, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        argv = [command, *(a for o in overrides for a in ("--set", o))]
        if command != "gradcheck":
            argv += ["--out", out]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 2, 3, 4), argv
        written = sorted(os.listdir(out)) if os.path.exists(out) else None
        if rc == 2:
            assert written is None, argv
        elif rc == 4:
            assert written in (None, ["divergence_snapshot.json"]), argv
        elif rc == 0 and written is not None:
            _numeric_cells_finite(out)
