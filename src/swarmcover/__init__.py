"""Multi-UAV full-coverage path planning on grid maps, trained with
Q-learning on a small from-scratch dense network.

The public surface mirrors the module layout: ``gridworld`` for maps and
swarm dynamics, ``densenet`` for the Q-network, ``agent`` for the policy
and replay machinery, ``experiment`` for seeded runs and aggregation,
``cli`` for the command line front end. The names below are the ones the
demos and the README use, plus the errors a caller may want to catch;
everything else is imported from its module.
"""

from .agent import GLOBAL, LOCAL
from .densenet import NumericalError, forward, init_network, train_step
from .experiment import (
    ConfigError,
    ExperimentSpec,
    aggregate,
    run_experiment,
    run_seed,
)
from .gridworld import (
    Action,
    MapError,
    draw_state,
    encode_observation,
    initial_swarm_state,
    is_coverage_complete,
    load_bundled_map,
    new_cell_reward,
    parse_map,
    resolve_map,
    transition,
    unvisited_free_count,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ConfigError",
    "ExperimentSpec",
    "GLOBAL",
    "LOCAL",
    "MapError",
    "NumericalError",
    "__version__",
    "aggregate",
    "draw_state",
    "encode_observation",
    "forward",
    "init_network",
    "initial_swarm_state",
    "is_coverage_complete",
    "load_bundled_map",
    "new_cell_reward",
    "parse_map",
    "resolve_map",
    "run_experiment",
    "run_seed",
    "train_step",
    "transition",
    "unvisited_free_count",
]
