"""Fuzz every command's --set space through cli.main, in process.

The fuzzed fields are read from the config tree, cli.RunConfig, so a
new config field is fuzzed without editing this file.  Whatever the
overrides, a run exits 0, 2, 3 or 4 and no exception escapes.  A config
error (2) writes nothing; a numeric failure (4) writes nothing or only
the divergence snapshot; a successful run's CSV cells are finite
wherever they are numbers.  Every count is drawn small, so no example
trains or solves for long.  A run that exits 0 emits no RuntimeWarning:
numpy's overflow and invalid-value warnings there would be noise around
a correct result.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import fields, is_dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcsgame.cli import RunConfig, main

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -1e308, 1e-300, 1e308, math.inf, -math.inf, math.nan]),
    st.floats(0.0, 2.0),
    st.floats(-50.0, 100.0),
)
_INTS = st.sampled_from([0, -1, 2.5, True])
_SEEDS = st.sampled_from([0, -1, 2.5, True, 2**64])
_BY_ANNOTATION = {
    "int": _INTS,
    "float": _FLOATS,
    "str": st.sampled_from(["uniform", "linear", "normal", "lambda", "width", ""]),
}
_NUMBER_LISTS = st.lists(st.one_of(_FLOATS, st.integers(-1, 3)), max_size=3)
_NOT_OBJECTS = st.sampled_from([5, "ab", [["seed", 3]], None])


def _fuzzed(cls, prefix: str = "") -> dict:
    """Every field of the config tree under cls by dotted path, with its values.

    Values are drawn by the field's annotation, and a section is also set
    whole to a value that is not an object.  No count is drawn large: the
    caps on counts have their own tests.
    """
    table = {}
    for f in fields(cls):
        key = prefix + f.name
        if is_dataclass(f.default):
            table[key] = _NOT_OBJECTS
            table.update(_fuzzed(type(f.default), f"{key}."))
        elif f.name == "seed":
            table[key] = _SEEDS
        elif f.type.startswith("tuple"):
            table[key] = _NUMBER_LISTS
        else:
            table[key] = _BY_ANNOTATION[f.type]
    return table


# every field a --set can reach; these flags come after _BASE's and later
# flags win, so a drawn count replaces a base count with an invalid one
_FUZZED = _fuzzed(RunConfig)

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
    st.lists(st.sampled_from(sorted(_FUZZED)).flatmap(lambda k: _assignment(k, _FUZZED[k])),
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


@settings(derandomize=True, deadline=None, max_examples=300)
@given(command=st.sampled_from(["static", "train", "sweep", "gradcheck"]), overrides=_OVERRIDES)
@example(command="static", overrides=_UNSATISFIABLE)
@example(command="train", overrides=[*_UNSATISFIABLE, *_SMALL_TRAIN])
@example(command="static", overrides=["scenario.capacity=" + "[" * 50_000 + "]" * 50_000])
@example(command="static", overrides=["train=5"])
@example(command="static", overrides=['train="ab"'])
@example(command="static", overrides=['train=[["seed",3]]'])
@example(command="static", overrides=["scenario.unit_cost_range=[0,1,2]"])
@example(command="train", overrides=["env.history_rounds=100000000000000000"])
@example(command="sweep", overrides=['sweep.axis="delta"', "sweep.values=[1.0, 5e-324]"])
@example(command="static", overrides=["scenario.capacity=1e-300", "scenario.demand_hi=1e300",
                                      "scenario.utility_scale=1e300"])
@example(command="static", overrides=["scenario.capacity=1e300", "scenario.demand_hi=1e300",
                                      "scenario.utility_scale=1e-300",
                                      "scenario.own_value_range=[1e-300,1e-300]",
                                      "scenario.unit_cost_range=[0,0]"])
def test_every_set_space_exits_with_a_documented_code(command, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        argv = [command, *(a for o in overrides for a in ("--set", o))]
        if command != "gradcheck":
            argv += ["--out", out]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc in (0, 2, 3, 4), argv
        written = sorted(os.listdir(out)) if os.path.exists(out) else None
        if rc == 2:
            assert written is None, argv
        elif rc == 4:
            assert written in (None, ["divergence_snapshot.json"]), argv
        elif rc == 0:
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
            if written is not None:
                _numeric_cells_finite(out)
