"""Stackelberg pricing for mobile crowdsensing under demand uncertainty.

The package splits into the static game (model, follower, leader), the
repeated-game environment (dynamics), a from-scratch PPO pricing agent
(learner), and the experiment tooling behind the command line
(experiments, gradcheck, reporting, cli).
"""

__version__ = "0.1.0"
