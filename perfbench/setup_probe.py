"""Time one set-up in a fresh interpreter and print it as JSON.

Set-up is everything before the first training move: importing
swarmcover, loading the map, validating the spec and building the
SwarmController (which calls init_network); for a CLI job also parsing
the config and building the specs. The probe replaces the name
``run_episode`` calls for a swarm step with one that stops the run.

    python3 perfbench/setup_probe.py ROOT JOB_JSON
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class FirstMove(BaseException):
    """Stops the run at its first training move. A BaseException, so no
    handler in the package catches it on the way out."""


def _first_move(*args, **kwargs):
    raise FirstMove


def main() -> int:
    root, job = Path(sys.argv[1]), json.loads(sys.argv[2])
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    try:
        from swarmcover import experiment

        experiment.step_swarm = _first_move
        if job["kind"] == "cli":
            from swarmcover import cli

            cli.main(["run", job["config"], "--parallelism", "1"])
        else:
            from swarmcover import ExperimentSpec, resolve_map

            spec = ExperimentSpec(
                map_id=job["map"],
                grid=resolve_map(job["map"]),
                n_uavs=job["n_uavs"],
                mode=job["mode"],
                seeds=(job["seed"],),
                max_episodes=job["episodes"],
                step_budget=job["step_budget"],
            )
            experiment.run_experiment(spec)
    except FirstMove:
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    print("the run ended without a training move", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
