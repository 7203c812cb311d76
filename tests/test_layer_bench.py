"""Smoke tests of tools/layer_bench.py, the per-layer timing of a PPO step and the solver."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_bench_writes_one_record_per_layer(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_bench.py"), "--label", "smoke",
         "--out", str(tmp_path), "--repeats", "2", "--passes", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["label"] == "smoke"
    assert record["repeats"] == 2 and record["passes"] == 1
    assert record["cpu_count"] >= 1
    assert record["python"].count(".") == 2 and record["numpy"]
    assert record["config"]["users"] == 5 and record["config"]["table_episodes"] == 50
    steps = record["config"]["steps_per_batch"]
    calls = {
        "env_step": steps, "policy_sample": steps, "rollout_step": steps,
        "episode_outcomes": 1, "episode_values": 1,
        "ppo_update": 1,
        "train_step": steps, "write_tables": 1,
        "best_response": 5, "sp_payoff_gradient_n200": 1, "static_n25": 1,
        **{f"{layer}_n{n}": 1 for layer in ("generate_scenario", "compute_se")
           for n in (5, 200, 10_000)},
    }
    layers = record["layers"]
    assert sorted(layers) == sorted(calls)
    for name, row in layers.items():
        assert row["calls_per_repeat"] == calls[name], name
        assert 0.0 < row["min_us"] <= row["q1_us"] <= row["median_us"] <= row["q3_us"]


def test_paired_mode_compares_two_trees_layer_by_layer(tmp_path):
    # both sides are this tree, so every ratio is near 1
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_bench.py"), "--label", "pair",
         "--out", str(tmp_path), "--repeats", "2", "--passes", "1", "--paired", src,
         "--pairs", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_pair.json"]
    record = json.loads((tmp_path / "BENCH_pair.json").read_text())
    assert record["pairs"] == 2 and record["parent_src"] == str(Path(src).resolve())
    assert {"train_step", "ppo_update", "episode_outcomes", "episode_values", "env_step",
            "policy_sample", "rollout_step", "static_n25", "write_tables"} <= set(record["layers"])
    assert record["unpaired"] == {}
    for name, row in record["layers"].items():
        assert row["parent_median_us"] > 0.0 and row["change_median_us"] > 0.0, name
        assert 0.0 < row["ratio_q1"] <= row["ratio_median"] <= row["ratio_q3"], name
        assert row["wins"] in (0, 1, 2), name


def test_layer_bench_rejects_a_single_repeat(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "layer_bench.py"), "--out", str(tmp_path),
         "--repeats", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert not list(tmp_path.iterdir())
