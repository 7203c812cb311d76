"""End-to-end tests of the command line interface, run in process."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_scenario
from mcsgame.cli import main
from mcsgame.gradcheck import CHECK_NAMES, run_all
from mcsgame.leader import compute_se
from mcsgame.learner import load_policy
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


def test_set_without_equals_exits_2(tmp_path):
    rc = main(["static", "--set", "scenario.n_mus", "--out", str(tmp_path / "run")])
    assert rc == 2


def test_missing_out_flag_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["static", "--seed", "0"])


# ---------------------------------------------------------------------------
# train


def test_train_emits_full_artifact_set(tmp_path):
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

    policy, record = load_policy(out / "checkpoint.json")
    assert record["train"]["episodes"] == 2
    assert policy.log_std.shape == (5,)

    for svg in ("prices.svg", "allocations.svg", "sp_payoff.svg", "mu_payoffs.svg"):
        assert (out / svg).is_file()
        assert b"<svg" in (out / svg).read_bytes()

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {
        "episodes.csv", "baselines.csv", "checkpoint.json", "steps.csv",
        "prices.svg", "allocations.svg", "sp_payoff.svg", "mu_payoffs.svg",
    }


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


def test_train_divergence_exits_4_with_snapshot(tmp_path):
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
    assert snap["format"] == "mcsgame-divergence"
    assert snap["episode"] >= 1
    assert set(snap["parameters"]) == {
        "actor_weights", "actor_biases", "critic_weights", "critic_biases", "log_std",
    }
    # nothing else was written
    assert not (out / "episodes.csv").exists()
    assert not (out / "manifest.json").exists()


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


def test_sweep_requires_config_section(tmp_path):
    assert main(["sweep", "--seed", "0", "--out", str(tmp_path / "run")]) == 2


def test_sweep_rejects_unknown_axis(tmp_path):
    cfg = _write_config(tmp_path, {"sweep": {"axis": "price", "values": [1, 2]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_sweep_rejects_single_value(tmp_path):
    cfg = _write_config(tmp_path, {"sweep": {"axis": "delta", "values": [0.5]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_prints_one_row_per_check(capsys):
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 1 + len(CHECK_NAMES)
    for line in lines[1:]:
        assert line.endswith("PASS")


def test_gradcheck_catches_corrupted_gradient():
    results = run_all(seed=0, corrupt="leader_gradient")
    by_name = {r.name: r for r in results}
    assert not by_name["leader_gradient"].passed
    assert all(r.passed for name, r in by_name.items() if name != "leader_gradient")
