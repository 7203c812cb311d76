"""Stackelberg pricing for mobile crowdsensing under demand uncertainty.

The package splits into the static game (model, follower, leader), the
repeated-game environment (dynamics), a from-scratch PPO pricing agent
(learner), and the experiment tooling behind the command line
(experiments, gradcheck, reporting, cli).
"""

from .model import (
    DemandDistribution,
    LinearDemand,
    MuProfile,
    Scenario,
    UniformDemand,
    mu_own_profit,
    mu_payoff,
    sp_payoff,
)
from .follower import BestResponse, Region, best_response, foc_residual, price_threshold
from .leader import (
    EquilibriumResult,
    SolverConfig,
    compute_se,
    price_box,
    sp_payoff_gradient,
    sp_payoff_hessian,
)
from .dynamics import (
    EnvConfig,
    GameState,
    Transition,
    env_reset,
    env_step,
    greedy_policy,
    random_policy,
    respond,
)
from .learner import (
    PolicyParams,
    TrainConfig,
    TrainingDiverged,
    TrajectoryBuffer,
    load_policy,
    save_policy,
    train,
)
from .experiments import (
    BaselineResult,
    ScenarioSpec,
    SweepResult,
    generate_scenario,
    play_constant,
    play_greedy,
    play_random,
    run_sweep,
)

__version__ = "0.1.0"
