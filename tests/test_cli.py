"""End-to-end tests of the command line interface, run in process."""

import csv
import errno
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_checkpoint_holds, assert_record_holds, make_scenario
from mcsgame import cli, gradcheck, learner
from mcsgame.cli import main
from mcsgame.dynamics import EnvConfig
from mcsgame.experiments import ScenarioSpec
from mcsgame.gradcheck import CHECK_NAMES, run_all
from mcsgame.leader import compute_se
from mcsgame.learner import ActorGrads, MlpParams, TrainConfig, TrainingDiverged
from oracles import leader_grid_best_uniform_n1


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _cell(path, column, row=0):
    header, rows = _read_csv(path)
    return rows[row][header.index(column)]


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


TINY_TRAIN = [
    "--set", "train.episodes=2",
    "--set", "train.steps_per_batch=8",
    "--set", "train.update_epochs=2",
    "--set", "train.hidden=[8]",
    "--set", "baseline_steps=50",
]


# ---------------------------------------------------------------------------
# static


def test_static_writes_equilibrium_files(tmp_path):
    out = tmp_path / "run"
    rc = main(["static", "--seed", "7", "--out", str(out)])
    assert rc == 0
    for name in ("equilibrium.csv", "summary.csv", "manifest.json"):
        assert (out / name).is_file()
    se = compute_se(make_scenario(7))
    assert float(_cell(out / "summary.csv", "sp_payoff")) == pytest.approx(
        se.sp_payoff, rel=1e-12
    )
    assert _cell(out / "summary.csv", "converged") == "1"
    header, rows = _read_csv(out / "equilibrium.csv")
    assert len(rows) == 5
    assert [r[header.index("mu_index")] for r in rows] == ["1", "2", "3", "4", "5"]


@pytest.mark.parametrize("capacity, seed, regions", [
    (30, 3, {"interior", "below_threshold"}),
    (5, 1, {"interior", "at_capacity"}),
])
def test_static_region_column_reads_the_face(tmp_path, capacity, seed, regions):
    out = tmp_path / "run"
    assert main(["static", "--seed", str(seed), "--set", f"scenario.capacity={capacity}",
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out / "equilibrium.csv")
    col = {name: header.index(name) for name in header}
    for r in rows:
        x, cap = float(r[col["x_star"]]), float(r[col["capacity"]])
        lo, hi = float(r[col["demand_lo"]]), float(r[col["demand_hi"]])
        face = ("below_threshold" if x == max(cap - hi, 0.0)
                else "at_capacity" if x == max(cap - lo, 0.0) else "interior")
        assert r[col["region"]] == face
    assert {r[col["region"]] for r in rows} == regions


def test_static_reruns_byte_identical(tmp_path):
    args = ["static", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    for name in ("equilibrium.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma == mb


def test_integers_in_float_fields_echo_the_default_manifest(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["static", "--out", str(a)]) == 0
    assert main(["static", "--set", "scenario.capacity=20", "--set", "scenario.utility_scale=50",
                 "--set", "scenario.unit_cost_range=[0,1]", "--out", str(b)]) == 0
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_manifest_hashes_are_real(tmp_path):
    out = tmp_path / "run"
    assert main(["static", "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "mcsgame-manifest"
    assert manifest["command"] == "static"
    assert set(manifest["artifacts"]) == {"equilibrium.csv", "summary.csv"}
    for name, digest in manifest["artifacts"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest
    # the echoed config is complete enough to rerun from
    assert manifest["config"]["seed"] == 1
    assert manifest["config"]["scenario"]["n_mus"] == 5
    assert manifest["config"]["solver"] == {"tol": 1e-8}


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg = _write_config(tmp_path, {"seed": 3})
    out_flag = tmp_path / "flag"
    out_pure = tmp_path / "pure"
    assert main(["static", "--config", cfg, "--seed", "11", "--out", str(out_flag)]) == 0
    assert main(["static", "--seed", "11", "--out", str(out_pure)]) == 0
    assert _cell(out_flag / "summary.csv", "seed") == "11"
    assert (out_flag / "equilibrium.csv").read_bytes() == (out_pure / "equilibrium.csv").read_bytes()


def test_set_override_changes_population(tmp_path):
    out = tmp_path / "run"
    rc = main(["static", "--seed", "0", "--set", "scenario.n_mus=2", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "equilibrium.csv")
    assert len(rows) == 2


def test_single_user_matches_grid_oracle(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"scenario": {"n_mus": 1, "own_value_range": [1.0, 1.0], "unit_cost_range": [0.0, 0.0]}},
    )
    out = tmp_path / "run"
    assert main(["static", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    p_star = float(_cell(out / "equilibrium.csv", "p_star"))
    x_star = float(_cell(out / "equilibrium.csv", "x_star"))
    p_ref, _, x_ref = leader_grid_best_uniform_n1(1.0, 0.0, 0.0, 25.0, 20.0, 50.0)
    assert p_star == pytest.approx(p_ref, abs=1e-3)
    assert x_star == pytest.approx(x_ref, abs=1e-2)


def test_nonconvergence_exits_3_but_writes(tmp_path):
    out = tmp_path / "run"
    rc = main(["static", "--seed", "0", "--out", str(out), "--set", "solver.tol=1e-18"])
    assert rc == 3
    assert (out / "equilibrium.csv").is_file()
    assert _cell(out / "summary.csv", "converged") == "0"


@pytest.mark.parametrize("capacity", [25, 30])
def test_static_linear_capacity_past_support(tmp_path, capacity):
    # capacity >= demand_hi puts the lower price face at unit_cost, where
    # the linear density vanishes; seed 0 at 30 holds its first user there
    out = tmp_path / "run"
    rc = main([
        "static", "--seed", "0", "--out", str(out),
        "--set", 'scenario.demand_kind="linear"', "--set", f"scenario.capacity={capacity}",
    ])
    assert rc == 0
    assert _cell(out / "summary.csv", "converged") == "1"
    assert float(_cell(out / "summary.csv", "grad_residual")) <= 1e-8
    if capacity == 30:
        assert _cell(out / "equilibrium.csv", "p_star") == _cell(out / "equilibrium.csv", "unit_cost")


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "mcsgame", "static", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["equilibrium.csv", "manifest.json", "summary.csv"]


# ---------------------------------------------------------------------------
# config errors


def test_unknown_section_field_exits_2_without_files(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"scenario": {"bogus": 1}})
    out = tmp_path / "run"
    rc = main(["static", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "bogus" in capsys.readouterr().err


def test_unknown_top_level_key_exits_2(tmp_path):
    cfg = _write_config(tmp_path, {"scenarios": {}})
    assert main(["static", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 3,}')
    rc = main(["static", "--config", path.as_posix(), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "line" in capsys.readouterr().err


def test_bad_field_value_exits_2(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": {"n_mus": 0}})
    assert main(["static", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_removed_solver_field_exits_2(tmp_path):
    out = tmp_path / "run"
    assert main(["static", "--set", "solver.n_starts=2", "--out", str(out)]) == 2
    assert not out.exists()


def test_removed_env_episode_length_exits_2(tmp_path):
    # steps_per_batch sets the episode length; the old field had no effect
    out = tmp_path / "run"
    rc = main(["train", "--seed", "1", "--set", "env.episode_length=16",
               "--set", "train.episodes=1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_set_without_equals_exits_2(tmp_path):
    rc = main(["static", "--set", "scenario.n_mus", "--out", str(tmp_path / "run")])
    assert rc == 2


def _exits_2_without_files(capsys, argv, out):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["static", "gradcheck"])
def test_config_file_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "run"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command == "static" else [])
    _exits_2_without_files(capsys, argv, out)


def test_config_file_nested_too_deep_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[" * 100_000)
    out = tmp_path / "run"
    _exits_2_without_files(capsys, ["static", "--config", str(path), "--out", str(out)], out)


def test_set_value_nested_too_deep_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    deep = "[" * 50_000 + "]" * 50_000
    _exits_2_without_files(capsys, ["static", "--set", f"scenario.capacity={deep}", "--out", str(out)], out)


@pytest.mark.parametrize("command", ["static", "train"])
def test_unsatisfiable_draw_exits_2(tmp_path, capsys, command):
    # both ranges pass their checks, but own_value > unit_cost has
    # probability 5e-7 per draw
    out = tmp_path / "run"
    argv = [command, "--set", "scenario.unit_cost_range=[0,1]",
            "--set", "scenario.own_value_range=[0,1e-6]", "--out", str(out)]
    _exits_2_without_files(capsys, argv, out)


_BAD_SCENARIO = [
    "scenario.capacity=0",
    "scenario.capacity=-1",
    'scenario.capacity="20"',
    "scenario.utility_scale=0",
    "scenario.demand_lo=30",
    "scenario.demand_hi=1e400",  # JSON reads this as inf
    "scenario.n_mus=2.5",
    "scenario.n_mus=true",
    "seed=true",
    "baseline_steps=true",
    "scenario.capacity=true",
    "scenario.own_value_range=[0,true]",
    "scenario.capacity=1" + "0" * 309,  # an int too large for a float
    "solver.tol=1e400",
]
_BAD_TRAIN = [
    "train.steps_per_batch=2.5",
    "train.update_epochs=2.5",
    "train.episodes=2.5",
    "env.history_rounds=2.5",
    "train.seed=2.5",
    "train.hidden=[2.5]",
    "train.actor_lr=1e400",
    "train.critic_lr=1e400",
    "train.log_std_init=NaN",  # json.loads accepts NaN
    "train.log_std_init=709",  # exp overflows; train clips to [-3, 1]
    # counts too large to allocate: each request is beyond any address
    # space or numpy's 2**63-byte limit, so even without the caps on
    # counts nothing is allocated
    "env.history_rounds=100000000000000000",  # 3.47 EiB of history windows
    "env.history_rounds=1000000000000000000",
    "train.steps_per_batch=100000000000000000",  # 711 PiB of episode buffer
    "train.hidden=[100000000000000000]",
]
_BAD_SWEEP = [
    "sweep.values=[true,2]",
    "sweep.values=[1,1e400]",
    'sweep.values=[1,"x"]',
    "sweep.values=[1,1" + "0" * 309 + "]",
]


@pytest.mark.parametrize(
    "command, assignment",
    [("static", a) for a in _BAD_SCENARIO]
    + [("train", a) for a in _BAD_TRAIN]
    + [("sweep", a) for a in _BAD_SWEEP],
)
def test_invalid_value_exits_2_without_traceback(tmp_path, capsys, command, assignment):
    out = tmp_path / "run"
    extra = ["--set", 'sweep.axis="lambda"'] if command == "sweep" else []
    rc = main([command, "--set", assignment, *extra, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


_NOT_OBJECTS = ["5", '"ab"', '[["seed",3]]']
_SWEEP_SET = ["--set", 'sweep.axis="lambda"', "--set", "sweep.values=[20,30]"]


@pytest.mark.parametrize("command", ["static", "train", "sweep", "gradcheck"])
@pytest.mark.parametrize("value", _NOT_OBJECTS)
@pytest.mark.parametrize("source", ["set", "file"])
def test_train_section_not_an_object_exits_2(tmp_path, capsys, command, value, source):
    out = tmp_path / "run"
    if source == "set":
        argv = [command, "--set", f"train={value}"]
    else:
        argv = [command, "--config", _write_config(tmp_path, {"train": json.loads(value)})]
    if command == "sweep":
        argv += _SWEEP_SET
    if command != "gradcheck":
        argv += ["--out", str(out)]
    _exits_2_without_files(capsys, argv, out)


@pytest.mark.parametrize("text", _NOT_OBJECTS)
def test_config_file_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "run"
    _exits_2_without_files(capsys, ["static", "--config", str(path), "--out", str(out)], out)


def test_config_file_that_does_not_exist_exits_2(tmp_path, capsys):
    out, path = tmp_path / "run", tmp_path / "absent.json"
    rc = main(["static", "--config", str(path), "--out", str(out)])
    assert rc == 2
    # a failed read, not the failed write that main's own OSError handler reports
    assert f"config error: cannot read config {path}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["static", "train", "gradcheck"])
def test_sweep_section_is_checked_on_every_command(tmp_path, capsys, command):
    out = tmp_path / "run"
    argv = [command, "--set", "sweep=5", *TINY_TRAIN]
    if command != "gradcheck":
        argv += ["--out", str(out)]
    _exits_2_without_files(capsys, argv, out)


def test_range_of_three_numbers_names_what_it_needs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["static", "--set", "scenario.unit_cost_range=[0,1,2]", "--out", str(out)])
    assert rc == 2
    assert "unit_cost_range must be a list of two numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cls, field, value", [
    (ScenarioSpec, "n_mus", 2**19),
    (EnvConfig, "history_rounds", 2**19),
    (TrainConfig, "steps_per_batch", 2**19),
    (TrainConfig, "hidden", (2**19,)),
    (cli.RunConfig, "baseline_steps", 2**19),
])
def test_array_sizing_counts_are_capped(cls, field, value):
    # building the configs allocates nothing
    cls(**{field: value})
    over = tuple(v + 1 for v in value) if isinstance(value, tuple) else value + 1
    with pytest.raises(ValueError, match=str(2**19)):
        cls(**{field: over})


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "train", no_memory)
    out = tmp_path / "run"
    rc = main(["train", *TINY_TRAIN, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "more memory" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["static", "train", "sweep"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_that_is_not_a_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, below
):
    def never(*args, **kwargs):
        raise AssertionError("ran with an --out it cannot write")

    for name in ("compute_se", "run_sweep", "train"):
        monkeypatch.setattr(cli, name, never)
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    out = blocker / below if below else blocker
    rc = main([command, *TINY_TRAIN, *_SWEEP_SET, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "is not a directory" in err and "Traceback" not in err
    assert blocker.read_text() == "keep"


def test_output_write_failure_exits_2(tmp_path, capsys, monkeypatch):
    def disk_full(out_dir, *args):
        raise OSError(errno.ENOSPC, "No space left on device", f"{out_dir}/manifest.json")

    monkeypatch.setattr(cli, "write_manifest", disk_full)
    out = tmp_path / "run"
    rc = main(["static", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "No space left on device" in err and str(out) in err and "Traceback" not in err


def test_missing_out_flag_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["static", "--seed", "0"])


def test_static_takes_no_svg_flag(tmp_path):
    # static draws no chart
    with pytest.raises(SystemExit):
        main(["static", "--svg", "on", "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# train


def test_train_emits_full_artifact_set(tmp_path, monkeypatch):
    trained, real_train = [], cli.train

    def recording_train(scenario, env_config, train_config, on_episode=None):
        trained.append((real_train(scenario, env_config, train_config, on_episode),
                        env_config, train_config))
        return trained[-1][0]

    monkeypatch.setattr(cli, "train", recording_train)
    out = tmp_path / "run"
    rc = main(["train", "--seed", "0", "--out", str(out), "--steps-trace", "on", *TINY_TRAIN])
    assert rc == 0

    header, rows = _read_csv(out / "episodes.csv")
    assert [r[0] for r in rows] == ["1", "2"]
    assert "mean_price_1" in header and "mean_mu_payoff_5" in header

    bh, brows = _read_csv(out / "baselines.csv")
    assert [r[0] for r in brows] == ["greedy", "random", "static_se"]
    se = compute_se(make_scenario(0))
    static_row = brows[2]
    assert float(static_row[bh.index("mean_sp_payoff")]) == pytest.approx(se.sp_payoff, rel=1e-9)
    assert static_row[bh.index("steps")] == "0"

    sh, srows = _read_csv(out / "steps.csv")
    assert len(srows) == 2 * 8
    assert sh[:2] == ["episode", "step"]

    ((policy, _), env_config, train_config), = trained
    record = assert_checkpoint_holds(out / "checkpoint.json", policy, env_config, train_config)
    assert record["train"]["episodes"] == 2
    assert len(record["log_std"]) == 5

    for svg in ("prices.svg", "allocations.svg", "sp_payoff.svg", "mu_payoffs.svg"):
        assert (out / svg).is_file()
        assert b"<svg" in (out / svg).read_bytes()

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {
        "episodes.csv", "baselines.csv", "checkpoint.json", "steps.csv",
        "prices.svg", "allocations.svg", "sp_payoff.svg", "mu_payoffs.svg",
    }


def test_a_step_trace_too_large_to_hold_exits_2_before_training(tmp_path, capsys):
    # 1.28e13 steps: the trace's arrays would exceed any address space
    out = tmp_path / "run"
    rc = main(["train", "--steps-trace", "on", "--set", "train.episodes=100000000000",
               "--out", str(out)])
    assert rc == 2
    assert "memory" in capsys.readouterr().err
    assert not out.exists()


def test_train_svg_off_and_no_steps_trace(tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--seed", "0", "--out", str(out), "--svg", "off", *TINY_TRAIN])
    assert rc == 0
    assert not list(out.glob("*.svg"))
    assert not (out / "steps.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"episodes.csv", "baselines.csv", "checkpoint.json"}


def test_train_reruns_identical_manifests(tmp_path):
    args = ["train", "--seed", "5", "--svg", "off", *TINY_TRAIN]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["artifacts"] == mb["artifacts"]


def test_train_divergence_exits_4_with_snapshot(tmp_path, monkeypatch):
    diverged, real_train = [], cli.train

    def recording_train(*args, **kwargs):
        try:
            return real_train(*args, **kwargs)
        except TrainingDiverged as e:
            diverged.append(e)
            raise

    monkeypatch.setattr(cli, "train", recording_train)
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        rc = main(
            [
                "train", "--seed", "0", "--out", str(out),
                "--set", "train.critic_lr=1e9",
                "--set", "train.episodes=50",
                "--set", "train.steps_per_batch=8",
                "--set", "train.hidden=[8]",
            ]
        )
    assert rc == 4
    snap = json.loads((out / "divergence_snapshot.json").read_text())
    assert sorted(snap) == ["config", "episode", "format", "inner_epoch", "parameters", "version"]
    assert (snap["format"], snap["version"]) == ("mcsgame-divergence", 2)
    (e,) = diverged
    assert (snap["episode"], snap["inner_epoch"]) == (e.episode, e.inner_epoch)
    assert snap["episode"] >= 1
    # the parameters, in the checkpoint's layout, are the exception's record
    # bit for bit, the non-finite entries included
    assert_record_holds(snap["parameters"], e.parameters)
    critic = np.concatenate([*snap["parameters"]["critic"]["weights"],
                             *snap["parameters"]["critic"]["biases"]])
    assert not np.isfinite(critic).all()
    # nothing else was written
    assert not (out / "episodes.csv").exists()
    assert not (out / "manifest.json").exists()


def test_prices_near_the_float_limit_diverge_without_an_overflow_in_the_means(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mcsgame", "train", "--out", str(tmp_path / "run"),
         "--set", "env.p_max=1e308", "--set", "scenario.capacity=1e-300",
         "--set", 'scenario.demand_kind="linear"', "--set", "train.gamma=1"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "training diverged at episode 1, inner epoch 1" in proc.stderr
    # neither the rollout nor the diverging update prints a numpy warning
    assert "Warning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("seed", [0, 4])
def test_an_overflowing_rollout_exits_4_without_a_numpy_warning(tmp_path, seed):
    # at p_max = 1e308 the SP payoff's p . x overflows in the first episode's rollout
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mcsgame", "train", "--seed", str(seed), "--svg", "off",
         "--out", str(tmp_path / "run"), "--set", "env.p_max=1e308", "--set", "train.episodes=2"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("row", [0, -1])
@pytest.mark.parametrize("column, spread_name", [("f", "f"), ("m", "m_2")])
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_a_non_finite_cell_raises_before_out_dir_exists(tmp_path, row, column, spread_name, bad):
    second = {"k": np.arange(4), "f": np.linspace(0.0, 1.0, 4), "m": np.ones((4, 3))}
    second[column][row, ...] = bad if column == "f" else [1.0, bad, 1.0]
    out = tmp_path / "out"
    with pytest.raises(FloatingPointError, match=rf"^t2\.csv: a {spread_name} cell is not finite$"):
        cli._write_tables(str(out), {"t1.csv": {"a": [0.5]}, "t2.csv": second})
    assert not out.exists()


def test_baseline_means_near_the_float_limit_stay_finite(tmp_path):
    argv = ["train", "--seed", "0", "--set", "env.p_max=1e306", "--set", "env.reward_scale=1e-306",
            "--set", "train.episodes=2", "--set", "train.steps_per_batch=8",
            "--set", "train.update_epochs=2", "--set", "train.hidden=[4]", "--svg", "off",
            "--out", str(tmp_path / "run")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    header, rows = _read_csv(tmp_path / "run" / "baselines.csv")
    assert [r[0] for r in rows] == ["greedy", "random", "static_se"]
    assert all(np.isfinite(float(cell)) for r in rows for cell in r[2:])


# ---------------------------------------------------------------------------
# sweep


def test_sweep_delta_layout(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "scenario": {"unit_cost_range": [0.0, 0.0]},
            "sweep": {"axis": "delta", "values": [0.2, 0.6, 1.0]},
        },
    )
    out = tmp_path / "run"
    rc = main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "sweep_mus.csv")
    assert len(rows) == 3
    assert [r[header.index("mu_index")] for r in rows] == ["1", "2", "3"]
    assert [r[header.index("axis")] for r in rows] == ["delta"] * 3
    sh, srows = _read_csv(out / "sweep_summary.csv")
    assert len(srows) == 1
    assert srows[0][sh.index("label")] == "joint"
    assert (out / "sweep_price.svg").is_file()
    assert (out / "sweep_allocation.svg").is_file()
    assert not (out / "sweep_payoff.svg").exists()


def test_sweep_demand_upper_layout(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "scenario": {"n_mus": 2},
            "sweep": {"axis": "demand_upper", "values": [20, 25]},
        },
    )
    out = tmp_path / "run"
    rc = main(["sweep", "--config", cfg, "--seed", "4", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "sweep_mus.csv")
    assert len(rows) == 4
    sh, srows = _read_csv(out / "sweep_summary.csv")
    assert [r[sh.index("label")] for r in srows] == ["20", "25"]
    for svg in ("sweep_price.svg", "sweep_allocation.svg", "sweep_payoff.svg"):
        assert (out / svg).is_file()


_SWEPT_FIELDS = {
    "delta": ("own_value", [0.3, 0.6, 0.9]),
    "cost": ("unit_cost", [0.1, 0.3, 0.5]),
    "demand_upper": ("demand_hi", [21.0, 30.0]),
    "lambda": ("utility_scale", [20.0, 50.0]),
}


@pytest.mark.parametrize("axis", sorted(_SWEPT_FIELDS))
def test_sweep_value_is_the_swept_field(tmp_path, axis):
    swept, values = _SWEPT_FIELDS[axis]
    out = tmp_path / "run"
    rc = main(["sweep", "--seed", "2", "--set", "scenario.n_mus=2",
               "--set", f'sweep.axis="{axis}"', "--set", f"sweep.values={values}",
               "--svg", "off", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "sweep_mus.csv")
    sweep_value = [r[header.index("sweep_value")] for r in rows]
    assert sweep_value == [r[header.index(swept)] for r in rows]
    per_market = 1 if axis in ("delta", "cost") else 2
    assert [float(v) for v in sweep_value[::per_market]] == values


@pytest.mark.parametrize("axis, values", [("delta", "[0.5,0.0]"), ("cost", "[0.0,1.0]"),
                                          ("cost", "[-0.1,0.5]")])
def test_sweep_to_a_user_without_margin_exits_2(tmp_path, capsys, axis, values):
    # the default ranges pin unit_cost 0 for delta and own_value 1 for cost
    out = tmp_path / "run"
    argv = ["sweep", "--set", f'sweep.axis="{axis}"', "--set", f"sweep.values={values}",
            "--out", str(out)]
    _exits_2_without_files(capsys, argv, out)


def test_sweep_that_does_not_converge_exits_3_with_its_files(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["sweep", "--set", 'sweep.axis="lambda"', "--set", "sweep.values=[20,50]",
               "--set", "solver.tol=1e-18", "--svg", "off", "--out", str(out)])
    assert rc == 3
    assert "did not converge" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "sweep_mus.csv", "sweep_summary.csv"]
    header, rows = _read_csv(out / "sweep_summary.csv")
    assert [r[header.index("converged")] for r in rows] == ["0", "0"]


def test_csv_headers_are_pinned(tmp_path):
    n2 = ["--set", "scenario.n_mus=2"]
    static, train = tmp_path / "static", tmp_path / "train"
    assert main(["static", *n2, "--out", str(static)]) == 0
    assert main(["train", *n2, *TINY_TRAIN, "--steps-trace", "on", "--svg", "off",
                 "--out", str(train)]) == 0
    assert _read_csv(static / "equilibrium.csv")[0] == [
        "mu_index", "own_value", "unit_cost", "capacity", "demand_lo", "demand_hi",
        "price_threshold", "p_star", "x_star", "region", "mu_payoff",
    ]
    assert _read_csv(static / "summary.csv")[0] == [
        "n_mus", "utility_scale", "seed", "sp_payoff", "total_allocation", "iterations",
        "grad_residual", "converged",
    ]
    for axis, values in (("delta", "[0.5,0.9]"), ("lambda", "[20,50]")):
        sweep = tmp_path / axis
        assert main(["sweep", *n2, "--set", f'sweep.axis="{axis}"',
                     "--set", f"sweep.values={values}", "--svg", "off", "--out", str(sweep)]) == 0
        assert _read_csv(sweep / "sweep_mus.csv")[0] == [
            "axis", "sweep_value", "mu_index", "own_value", "unit_cost", "capacity",
            "demand_lo", "demand_hi", "utility_scale", "price_threshold", "p_star", "x_star",
            "mu_payoff",
        ]
        assert _read_csv(sweep / "sweep_summary.csv")[0] == [
            "label", "sp_payoff", "total_allocation", "iterations", "grad_residual", "converged",
        ]
    assert _read_csv(train / "episodes.csv")[0] == [
        "episode", "mean_reward", "mean_sp_payoff", "actor_objective", "critic_loss",
        "mean_price_1", "mean_price_2", "mean_allocation_1", "mean_allocation_2",
        "mean_mu_payoff_1", "mean_mu_payoff_2",
    ]
    assert _read_csv(train / "baselines.csv")[0] == [
        "name", "steps", "mean_sp_payoff", "mean_reward", "mean_mu_payoff_1", "mean_mu_payoff_2",
    ]
    assert _read_csv(train / "steps.csv")[0] == [
        "episode", "step", "p_1", "p_2", "x_1", "x_2", "sp_payoff", "reward",
        "mu_payoff_1", "mu_payoff_2", "clamped_flag",
    ]


def test_sweep_requires_config_section(tmp_path):
    assert main(["sweep", "--seed", "0", "--out", str(tmp_path / "run")]) == 2


def test_sweep_rejects_unknown_axis(tmp_path):
    cfg = _write_config(tmp_path, {"sweep": {"axis": "price", "values": [1, 2]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_sweep_rejects_single_value(tmp_path):
    cfg = _write_config(tmp_path, {"sweep": {"axis": "delta", "values": [0.5]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("values", ["[1e17, 1.0000000000000002e17]", "[1e17, 1e17]"])
def test_sweep_svgs_on_an_axis_one_ulp_wide(tmp_path, values):
    # a tick step of 5 is below half an ulp at 1e17; run apart so that a
    # tick loop that never ends fails the test instead of stalling it
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "mcsgame", "sweep", "--set", 'sweep.axis="lambda"',
         "--set", f"sweep.values={values}", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "sweep_price.svg").is_file()


def test_sweep_to_a_subnormal_own_value_prints_no_warning(tmp_path):
    # the margin 5e-324 makes the solver's Newton denominator subnormal
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mcsgame", "sweep", "--set", 'sweep.axis="delta"',
         "--set", "sweep.values=[1.0, 5e-324]", "--out", str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("law", ["uniform", "linear"])
@pytest.mark.parametrize("demand_hi", [1e108, 1e150, 1e200, 1e300])
def test_wide_demand_support_solves(tmp_path, capsys, law, demand_hi):
    # the cube of a density near 1/demand_hi underflows to 0
    scenario = ["--set", f'scenario.demand_kind="{law}"', "--seed", "0"]
    runs = {
        "static": ["static", "--set", f"scenario.demand_hi={demand_hi!r}"],
        "train": ["train", "--set", f"scenario.demand_hi={demand_hi!r}", *TINY_TRAIN],
        "sweep": ["sweep", "--set", 'sweep.axis="demand_upper"',
                  "--set", f"sweep.values=[{demand_hi!r}, {2 * demand_hi!r}]"],
    }
    for name, args in runs.items():
        rc = main([*args, *scenario, "--out", str(tmp_path / name)])
        assert rc == 0, (name, capsys.readouterr().err)


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_prints_one_row_per_check(capsys):
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 1 + len(CHECK_NAMES)
    for line in lines[1:]:
        assert line.endswith("PASS")


def _scaled_mlp(grads):
    return MlpParams([1.01 * w for w in grads.weights], [1.01 * b for b in grads.biases])


# each check: where it looks its analytic derivative up, and that
# derivative's result with every gradient entry scaled by 1.01
_CORRUPTIONS = {
    "leader_gradient": (gradcheck, "sp_payoff_gradient", lambda g: 1.01 * g),
    "mlp_backward": (learner, "mlp_backward", _scaled_mlp),
    "ppo_actor_gradient": (
        learner, "ppo_actor_gradient", lambda g: ActorGrads(_scaled_mlp(g.mlp), 1.01 * g.log_std)
    ),
    "critic_gradient": (
        learner, "critic_loss_and_gradient", lambda out: (out[0], _scaled_mlp(out[1]))
    ),
}


@pytest.mark.parametrize("corrupted", CHECK_NAMES)
def test_gradcheck_catches_corrupted_gradient(monkeypatch, corrupted):
    module, name, scale = _CORRUPTIONS[corrupted]
    analytic = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: scale(analytic(*args)))
    failed = [r.name for r in run_all(seed=0) if not r.passed]
    assert failed == [corrupted]


def test_gradcheck_with_a_corrupted_gradient_exits_4(monkeypatch, capsys):
    module, name, scale = _CORRUPTIONS["mlp_backward"]
    analytic = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: scale(analytic(*args)))
    rc = main(["gradcheck", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 4
    rows = {line.split()[0]: line.split()[-1] for line in captured.out.splitlines()[1:]}
    assert rows == {name: "FAIL" if name == "mlp_backward" else "PASS" for name in CHECK_NAMES}
    assert "mlp_backward" in captured.err
