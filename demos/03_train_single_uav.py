"""
Training one UAV to cover a 5x5 map
===================================

A single seed, thirty episodes: exploration decays each episode while
experience replay shapes the Q-network.  Early episodes burn most of the
step budget; trained ones sweep the map in a few dozen actions.
"""

from swarmcover import LOCAL, ExperimentSpec, load_bundled_map, run_seed

grid = load_bundled_map("grove_5x5")
spec = ExperimentSpec(map_id="grove_5x5", grid=grid, n_uavs=1, mode=LOCAL)

print(f"map grove_5x5: {grid.rows}x{grid.cols}, "
      f"step budget {spec.episode_budget} actions per episode\n")
print("episode  epsilon  actions  covered")

result = run_seed(spec, seed=3)
for record in result.episodes:
    print(f"{record.episode:7d}  {spec.epsilon_at(record.episode):7.3f}"
          f"  {record.total_actions:7d}  {'yes' if record.covered else 'no'}")

best = result.best_episode
print(f"\nbest covering episode: #{best.episode} "
      f"with {best.total_actions} actions for 21 cells")
print("per-UAV split:", best.per_uav_actions)
