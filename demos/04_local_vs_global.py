"""
Local controllers vs one shared brain
=====================================

Two UAVs cover the same map twice: once with a private Q-network per
UAV ("local"), once with a single network trained on everyone's
experience ("global").  Twenty episodes and two seeds keep this quick;
the library defaults (thirty episodes, five seeds) sharpen the contrast.
"""

from swarmcover import (
    GLOBAL,
    LOCAL,
    ExperimentSpec,
    aggregate,
    load_bundled_map,
    run_experiment,
)

grid = load_bundled_map("grove_5x5")

for mode in (LOCAL, GLOBAL):
    spec = ExperimentSpec(
        map_id="grove_5x5",
        grid=grid,
        n_uavs=2,
        mode=mode,
        seeds=(1, 2),
        max_episodes=20,
    )
    results = run_experiment(spec)
    stats = aggregate(results)

    print(f"mode = {mode}")
    for run in results:
        best = run.best_total_actions
        note = f"best {best} actions" if best is not None else "never covered"
        print(f"  seed {run.seed}: {note}")
    # With no covering seed, aggregate counts every seed as failed and
    # leaves mean and std as None.
    if stats.n_runs == 0:
        print(f"  no covering seed ({stats.n_failed} failed)\n")
    else:
        print(f"  mean over covering seeds: {stats.mean:.2f} ± {stats.std:.2f} "
              f"({stats.n_runs} covered, {stats.n_failed} failed)\n")

print("With one UAV the two modes are the same machine: a single network,")
print("a single memory.  The library exploits that for an exactness test.")
