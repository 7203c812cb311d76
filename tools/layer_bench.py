"""Time the layers of one PPO training step and of the static solve.

    python tools/layer_bench.py [--label NAME] [--src DIR] [--out DIR]
                                [--repeats R] [--passes K]
                                [--paired PARENT_SRC [--pairs P]]

The training layers run at the `train` command's default configuration:
5 users drawn from seed 7, EnvConfig() and TrainConfig(seed=7).  One
training episode gives a policy; one more rollout of steps_per_batch
steps under that policy records the rounds, features and raw
(unclamped) actions the layers below are timed on.  The rollout starts
from a window of L rounds it draws itself, as env_reset does: uniform
prices on [0, p_max] and the users' responses (dynamics.respond).  A
step's features are written out here: per round of the last L, oldest
first, the prices over p_max, then log1p of the allocations.

- env_step: one environment step on a recorded action (the executed
  prices and the sales);
- policy_sample: one action draw on recorded features, given the
  exploration constants train computes once per episode;
- episode_outcomes: what train computes once per episode after the
  rollout: the recorded rounds' rewards and payoffs
  (dynamics.episode_outcomes), and the raw actions' log densities over
  the (D, N) rows;
- episode_values: the critic's values of an episode's recorded states
  and of the state after them, as train computes them: one batch pass
  over their features;
- ppo_update: the episode batch built once from the episode's arrays
  and update_epochs actor and critic gradient
  evaluations on it, as in `train` but into new gradient arrays on each
  call (`train` reuses one per network); the parameters are held fixed,
  so every repeat times the same work (the parameter steps themselves, a
  few array additions per epoch, are not timed);
- train_step: a whole `train` call of K episodes from a fresh policy,
  divided by its steps, the parameter steps included;
- write_tables: `cli._write_tables` writing the episodes.csv,
  baselines.csv and steps.csv tables of one `train --seed 7
  --steps-trace on` run of 50 K episodes (at the default K = 10, the
  default config's 500 episodes: 64,000 steps) into a fresh directory.
  The tables are captured from the command's own call, so each tree is
  timed on the input form its `_write_tables` takes, and --paired can
  compare two of them.

The solver layers run on default scenarios (uniform demand) drawn from
seed 7:

- generate_scenario_n<N> and compute_se_n<N>: drawing and solving the
  N-user scenario, for N in 5, 200 and 10^4;
- best_response: one user's response to its equilibrium price, over
  the 5 users of the N = 5 equilibrium;
- sp_payoff_gradient_n200: the leader gradient at the N = 200
  equilibrium;
- static_n25: the whole `static` command at 25 users, into a fresh
  output directory each call.

A repeat makes K passes over the recorded steps for the per-step
layers, K calls of best_response on each user and of
sp_payoff_gradient, and one call of each other layer, with the garbage
collector off, as timeit does.  The result holds the median, quartiles
and minimum over R repeats in microseconds per call, with the Python
and numpy versions and the CPU count, and is written to
BENCH_<label>.json.  Standard library and numpy only; the package is
imported from --src (default: src/ next to this directory), so a
checkout of another commit can be timed with the same script.

--paired PARENT_SRC compares two trees on this host: it runs the
measurement above P times for each, alternating the parent tree and
--src (the first of each pair swaps from one pair to the next), each
run in a fresh process.  BENCH_<label>.json then holds, per layer, each
side's median over its runs, the per-pair ratios of the --src median
to the parent's with their median and quartiles, and the number of
pairs in which --src was faster.  A layer that only one tree has is
listed under "unpaired" with that side's median.
"""

from __future__ import annotations

import os

# one BLAS thread; must be set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SOLVER_USERS = (5, 200, 10_000)
STATIC_USERS = 25
TABLE_EPISODES_PER_PASS = 50


def _timed(fn, repeats: int, calls: int) -> dict:
    """Median, quartiles and minimum over repeats of fn(), in us per call."""
    per_call = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            per_call.append((time.perf_counter() - start) / calls * 1e6)
    finally:
        if enabled:
            gc.enable()
    q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "min_us": min(per_call),
            "calls_per_repeat": calls}


def _solver_layers(passes: int, tmp: str) -> list:
    """(name, fn, calls per repeat) of each solver layer; static writes under tmp."""
    from mcsgame.cli import main as cli_main
    from mcsgame.experiments import ScenarioSpec, generate_scenario
    from mcsgame.follower import best_response
    from mcsgame.leader import compute_se, sp_payoff_gradient

    layers = []
    solved = {}
    for n in SOLVER_USERS:
        spec = ScenarioSpec(n_mus=n)
        scenario = generate_scenario(spec, SEED)
        solved[n] = (scenario, compute_se(scenario))
        layers.append((f"generate_scenario_n{n}", lambda spec=spec: generate_scenario(spec, SEED), 1))
        layers.append((f"compute_se_n{n}", lambda sc=scenario: compute_se(sc), 1))

    small, small_se = solved[5]
    pairs = list(zip(small.mus, small_se.prices.tolist()))

    def responses():
        for _ in range(passes):
            for mu, price in pairs:
                best_response(mu, price)

    mid, mid_se = solved[200]

    def gradients():
        for _ in range(passes):
            sp_payoff_gradient(mid, mid_se.prices)

    runs = itertools.count()

    def static():
        # a fresh directory each call: rewriting an existing one costs more
        out = os.path.join(tmp, f"static{next(runs)}")
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["static", "--seed", str(SEED), "--set", f"scenario.n_mus={STATIC_USERS}",
                      "--out", out])

    return layers + [
        ("best_response", responses, passes * len(pairs)),
        ("sp_payoff_gradient_n200", gradients, passes),
        (f"static_n{STATIC_USERS}", static, 1),
    ]


def _tables_layer(tmp: str, episodes: int) -> tuple:
    """(name, fn, calls per repeat) of write_tables: the tables one `train` run writes."""
    from mcsgame import cli

    write, captured = cli._write_tables, []

    def capture(out_dir, tables):
        captured.append(tables)
        return write(out_dir, tables)

    argv = ["train", "--seed", str(SEED), "--svg", "off", "--steps-trace", "on",
            "--set", f"train.episodes={episodes}", "--out", os.path.join(tmp, "train")]
    cli._write_tables = capture
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("the train run for write_tables failed")
    finally:
        cli._write_tables = write
    runs = itertools.count()
    return "write_tables", lambda: write(os.path.join(tmp, f"tables{next(runs)}"), captured[0]), 1


def measure(repeats: int, passes: int) -> dict:
    import numpy as np

    from mcsgame import learner
    from mcsgame.dynamics import EnvConfig, env_step, episode_outcomes, respond
    from mcsgame.experiments import ScenarioSpec, generate_scenario
    from mcsgame.learner import (
        TrainConfig,
        critic_loss_and_gradient,
        gaussian_log_prob,
        mlp_forward,
        policy_sample,
        ppo_actor_gradient,
        train,
    )

    scenario = generate_scenario(ScenarioSpec(), SEED)
    env = EnvConfig()
    cfg = TrainConfig(seed=SEED)
    policy, _ = train(scenario, env, TrainConfig(seed=SEED, episodes=1))

    noise = learner._noise(policy)
    rng = np.random.Generator(np.random.PCG64(SEED))
    history = env.history_rounds
    start = rng.uniform(0.0, env.p_max, size=(history, scenario.n))
    rounds = [(row, respond(scenario, row)) for row in start]

    def observed():
        return np.concatenate([np.concatenate([p / env.p_max, np.log1p(x)])
                               for p, x in rounds[-history:]])

    features, actions, means = [], [], []
    for _ in range(cfg.steps_per_batch):
        features.append(observed())
        actions.append(policy_sample(policy, features[-1], rng, noise)[0])
        means.append(mlp_forward(policy.actor, features[-1]))
        rounds.append(env_step(scenario, env, actions[-1]))
    features = np.array([*features, observed()])
    actions, means = np.array(actions), np.array(means)
    prices, allocations = (np.array(column) for column in zip(*rounds[history:]))
    log_probs = gaussian_log_prob(means, policy.log_std, actions)
    rewards = episode_outcomes(scenario, env, prices, allocations).reward

    def episode_values():
        return mlp_forward(policy.critic, features)[:, 0]

    values = episode_values()
    calls = passes * len(actions)

    def steps_pass():
        for _ in range(passes):
            for action in actions:
                env_step(scenario, env, action)

    def samples_pass():
        for _ in range(passes):
            for feats in features[:-1]:
                policy_sample(policy, feats, rng, noise)

    def outcomes_pass():
        for _ in range(passes):
            episode_outcomes(scenario, env, prices, allocations)
            gaussian_log_prob(means, policy.log_std, actions)

    def values_pass():
        for _ in range(passes):
            episode_values()

    def update():
        batch = learner.episode_batch(features[:-1], actions, log_probs, rewards, values, cfg.gamma)
        for _ in range(cfg.update_epochs):
            ppo_actor_gradient(policy, batch, cfg.clip_epsilon)
            critic_loss_and_gradient(policy, batch)

    def train_steps():
        train(scenario, env, TrainConfig(seed=SEED, episodes=passes))

    layers = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, fn, n in (
            ("env_step", steps_pass, calls),
            ("policy_sample", samples_pass, calls),
            ("episode_outcomes", outcomes_pass, passes),
            ("episode_values", values_pass, passes),
            ("ppo_update", update, 1),
            ("train_step", train_steps, passes * cfg.steps_per_batch),
            *_solver_layers(passes, tmp),
            _tables_layer(tmp, TABLE_EPISODES_PER_PASS * passes),
        ):
            fn()  # warm-up
            layers[name] = _timed(fn, repeats, n)
    return {
        "config": {
            "users": scenario.n,
            "seed": SEED,
            "steps_per_batch": cfg.steps_per_batch,
            "update_epochs": cfg.update_epochs,
            "hidden": list(cfg.hidden),
            "solver_users": list(SOLVER_USERS),
            "static_users": STATIC_USERS,
            "table_episodes": TABLE_EPISODES_PER_PASS * passes,
        },
        "numpy": np.__version__,
        "layers": layers,
    }


def paired(parent_src: str, src: str, pairs: int, repeats: int, passes: int) -> dict:
    """Alternate fresh measurement processes over the two trees; compare them per layer."""
    runs = {"parent": [], "change": []}
    sides = [("parent", parent_src), ("change", src)]
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(pairs):
            for side, tree in sides if i % 2 == 0 else sides[::-1]:
                subprocess.run(
                    [sys.executable, __file__, "--label", side, "--src", tree, "--out", tmp,
                     "--repeats", str(repeats), "--passes", str(passes)],
                    check=True, stdout=subprocess.DEVNULL,
                )
                runs[side].append(json.loads(Path(tmp, f"BENCH_{side}.json").read_text()))
    layers, unpaired = {}, {}
    names = {side: runs[side][0]["layers"] for side in runs}
    for side, other in (("parent", "change"), ("change", "parent")):
        for name in sorted(names[side].keys() - names[other].keys()):
            unpaired[name] = {"side": side, "median_us": statistics.median(
                run["layers"][name]["median_us"] for run in runs[side])}
    for name in (n for n in names["change"] if n in names["parent"]):
        parent, change = ([run["layers"][name]["median_us"] for run in runs[side]]
                          for side in ("parent", "change"))
        ratios = [c / p for p, c in zip(parent, change)]
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        layers[name] = {
            "parent_median_us": statistics.median(parent),
            "change_median_us": statistics.median(change),
            "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
            "wins": sum(r < 1.0 for r in ratios),
        }
    first = runs["change"][0]
    return {"config": first["config"], "numpy": first["numpy"], "pairs": pairs,
            "parent_src": str(Path(parent_src).resolve()), "layers": layers, "unpaired": unpaired}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="local", help="names the output BENCH_<label>.json")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding mcsgame")
    parser.add_argument("--out", default=str(ROOT), help="directory to write the JSON file to")
    parser.add_argument("--repeats", type=int, default=21, help="timed repeats per layer")
    parser.add_argument("--passes", type=int, default=10,
                        help="passes over the recorded steps per repeat")
    parser.add_argument("--paired", metavar="PARENT_SRC",
                        help="compare the mcsgame under PARENT_SRC with --src's, run by run")
    parser.add_argument("--pairs", type=int, default=10, help="alternations in --paired mode")
    args = parser.parse_args(argv)
    if args.repeats < 2 or args.passes < 1 or args.pairs < 2:
        parser.error("--repeats and --pairs must be at least 2 and --passes at least 1")
    if not args.label or any(c in args.label for c in "/\\"):
        parser.error("--label must be a non-empty file name part")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.paired:
        result = paired(args.paired, args.src, args.pairs, args.repeats, args.passes)
    else:
        sys.path.insert(0, str(Path(args.src).resolve()))
        result = measure(args.repeats, args.passes)
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": result.pop("numpy"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "passes": args.passes,
        **result,
    }
    path = out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    width = max(len(name) for name in record["layers"])
    for name, row in record["layers"].items():
        if args.paired:
            print(f"{name.ljust(width)}  {row['parent_median_us']:10.2f} -> "
                  f"{row['change_median_us']:10.2f} us  ratio {row['ratio_median']:.3f} "
                  f"[{row['ratio_q1']:.3f}, {row['ratio_q3']:.3f}]  wins {row['wins']}/{args.pairs}")
        else:
            print(f"{name.ljust(width)}  median {row['median_us']:10.2f} us  "
                  f"[{row['q1_us']:.2f}, {row['q3_us']:.2f}]")
    for name, row in record.get("unpaired", {}).items():
        print(f"{name.ljust(width)}  {row['side']} only: median {row['median_us']:10.2f} us")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
