"""
Touring the coverage gridworld
==============================

Parse a small map, steer one UAV by hand, and watch the reward signal,
the coverage picture, and the observation encoding react to each move.
"""

import numpy as np

from swarmcover import (
    Action,
    draw_state,
    encode_observation,
    initial_swarm_state,
    is_coverage_complete,
    new_cell_reward,
    parse_map,
    transition,
    unvisited_free_count,
)

# A 3x3 map: '.' free, '#' obstacle, digit = designated start of UAV 1.
grid = parse_map("1..\n.#.\n...\n")
state = initial_swarm_state(grid, n_uavs=1)

print("start (the UAV's own cell counts as covered from step zero):")
print(draw_state(grid, state))
print("unvisited free cells:", unvisited_free_count(grid, state))

# Moving east discovers a fresh cell.  The payoff grows as fewer cells
# remain: base 29.40 times (1 + max(rows, cols) / unvisited-before-move).
state, outcome = transition(grid, state, 0, Action.EAST)
print("\neast ->", outcome.kind.name, f"reward {outcome.reward:+.2f}")
print("  formula check:", f"{new_cell_reward(3, 3, 7):+.2f}")

# Going back over our own trail is penalised...
state, outcome = transition(grid, state, 0, Action.WEST)
print("west ->", outcome.kind.name, f"reward {outcome.reward:+.2f}")

# ...and bumping into a wall, obstacle, or map edge costs even more.
# The attempt still consumes one action: wasted motion is the metric.
state, outcome = transition(grid, state, 0, Action.NORTH)
print("north ->", outcome.kind.name, f"reward {outcome.reward:+.2f}",
      f"(actions so far: {state.global_step})")

# What the network sees: three stacked rows*cols planes -- obstacles,
# visited cells, and UAV positions.
obs = encode_observation(grid, state)
planes = obs.reshape(3, grid.rows * grid.cols)
print("\nobservation planes (obstacles / visited / positions):")
for name, plane in zip(("obstacles", "visited", "positions"), planes):
    print(f"  {name:9s}", plane.astype(int))

# Finish the job with a seeded random walk and show the covered board.
rng = np.random.default_rng(7)
while not is_coverage_complete(grid, state):
    state, _ = transition(grid, state, 0, Action(rng.integers(4)))

print("\nafter a random walk to full coverage "
      f"({state.global_step} actions for 8 cells):")
print(draw_state(grid, state))
