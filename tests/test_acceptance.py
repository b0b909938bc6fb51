"""End-to-end acceptance checks.

Each test prints one `[ACCEPT] <criterion>: PASS/FAIL` line on the real
terminal (bypassing capture) so a full run reads as a checklist. The
expensive five-seed training runs are shared between criteria through
module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from swarmcover.agent import (
    GLOBAL,
    LOCAL,
    ReplayMemory,
    bellman_target,
)
from swarmcover.cli import main
from swarmcover.densenet import train_step
from swarmcover.experiment import ExperimentSpec, aggregate, run_experiment
from swarmcover.gridworld import (
    NEW_CELL_BASE_REWARD,
    Action,
    initial_swarm_state,
    load_bundled_map,
    new_cell_reward,
    transition,
)

from test_agent import make_experience
from test_densenet import numerical_gradients, random_small_network


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        suffix = f"  ({detail})" if detail else ""
        print(f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} {detail}".strip()


@pytest.fixture(scope="module")
def grove():
    return load_bundled_map("grove_5x5")


@pytest.fixture(scope="module")
def baseline(grove):
    """Default-hyperparameter 1-UAV run over the default 5 seeds, timed."""
    spec = ExperimentSpec(map_id="grove_5x5", grid=grove, n_uavs=1, mode=LOCAL)
    start = time.perf_counter()
    results = run_experiment(spec)
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def swarm3(grove):
    spec = ExperimentSpec(map_id="grove_5x5", grid=grove, n_uavs=3, mode=LOCAL)
    return run_experiment(spec)


def test_reward_constants(capsys, grove):
    checks = []
    state = initial_swarm_state(grove, 1)  # UAV at (0,0)
    _, blocked = transition(grove, state, 0, Action.NORTH)
    checks.append(blocked.reward == -45.44)
    after_east, discovered = transition(grove, state, 0, Action.EAST)
    _, revisited = transition(grove, after_east, 0, Action.WEST)
    checks.append(revisited.reward == -31.66)
    checks.append(NEW_CELL_BASE_REWARD == 29.40)
    # 20 unvisited cells before the move on the 21-free-cell map
    checks.append(abs(discovered.reward - 29.40 * (1 + 5 / 20)) < 1e-9)
    for rows, cols, remaining, expected in [
        (5, 5, 25, 35.28),
        (5, 5, 1, 176.40),
        (9, 9, 9, 58.80),
    ]:
        checks.append(abs(new_cell_reward(rows, cols, remaining) - expected) < 1e-9)
    report(capsys, "reward-constants", all(checks))


def test_bellman_target(capsys):
    checks = [
        abs(bellman_target(29.40, 0.83, np.array([10.0, -5.0, 3.0, 0.0]), False) - 37.70)
        < 1e-9,
        bellman_target(-45.44, 0.83, np.array([1e12] * 4), True) == -45.44,
        abs(bellman_target(0.0, 0.83, np.full(4, 6.0), False) - 0.83 * 6.0) < 1e-9,
    ]
    report(capsys, "bellman-target", all(checks))


def test_epsilon_schedule(capsys, grove):
    spec = ExperimentSpec(map_id="grove_5x5", grid=grove, n_uavs=1, mode=LOCAL)
    values = [spec.epsilon_at(n) for n in range(41)]
    exact = all(
        abs(v - max(0.05, 0.49 * 0.93**n)) <= 1e-12 for n, v in enumerate(values)
    )
    floored = values[31] > 0.05 and all(v == 0.05 for v in values[32:])
    held = all(a >= b for a, b in zip(values, values[1:]))
    report(capsys, "epsilon-schedule", exact and floored and held)


def test_gradient_oracle(capsys):
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        net = random_small_network(rng)
        params = (
            net.layer1.weights.copy(),
            net.layer1.biases.copy(),
            net.layer2.weights.copy(),
            net.layer2.biases.copy(),
        )
        x = rng.normal(0, 1, 6)
        action = int(rng.integers(4))
        target = float(rng.normal(0, 3))
        train_step(net, x, action, target, 1.0)
        analytic = [
            params[0] - net.layer1.weights,
            params[1] - net.layer1.biases,
            params[2] - net.layer2.weights,
            params[3] - net.layer2.biases,
        ]
        for an, nu in zip(analytic, numerical_gradients(params, x, action, target)):
            scale = np.maximum(np.maximum(np.abs(an), np.abs(nu)), 1e-8)
            worst = max(worst, float((np.abs(an - nu) / scale).max()))
    report(capsys, "gradient-oracle", worst < 1e-4, f"max rel err {worst:.2e}")


def test_replay_law(capsys):
    rng = np.random.default_rng(55)
    ok = True
    for _ in range(20):
        total = int(rng.integers(0, 150))
        memory = ReplayMemory(60)
        markers = []
        for i in range(total):
            memory.append(make_experience(marker=i))
            markers.append(float(i))
        ok = ok and len(memory) == min(60, total)
        ok = ok and [e.reward for e in memory._buffer] == markers[-60:]
    report(capsys, "replay-law", ok)


def test_coverage_capability(capsys, baseline):
    results, elapsed = baseline
    covering = sum(1 for r in results if r.best_total_actions is not None)
    ok = covering >= 4 and elapsed < 300.0
    report(
        capsys,
        "coverage-capability",
        ok,
        f"{covering}/5 seeds covered, {elapsed:.0f}s",
    )


def test_swarm_benefit_trend(capsys, baseline, swarm3):
    single = aggregate(baseline[0])
    triple = aggregate(swarm3)
    ok = triple.mean < single.mean
    report(
        capsys,
        "swarm-benefit-trend",
        ok,
        f"3 uav {triple.mean:.2f} < 1 uav {single.mean:.2f}",
    )


def test_local_global_parity(capsys, grove, baseline):
    # The baseline's first run is the seed-1 local run; every run records its
    # traces, and a seed's run does not depend on the spec's other seeds.
    local = baseline[0][0]
    spec = ExperimentSpec(
        map_id="grove_5x5", grid=grove, n_uavs=1, mode=GLOBAL, seeds=(local.seed,)
    )
    global_ = run_experiment(spec)[0]
    ok = local.episodes == global_.episodes
    report(capsys, "local-global-parity", ok, "identical traces at n=1")


def test_csv_determinism(capsys, tmp_path):
    (tmp_path / "tiny.txt").write_text("12\n..\n")
    config = tmp_path / "run.ini"
    config.write_text(
        f"[run]\nmaps = {tmp_path}/tiny.txt\nseeds = 1, 2\nepisodes = 5\n"
    )
    outputs = []
    for name in ("first.csv", "second.csv"):
        code = main(
            ["run", str(config), "--output", str(tmp_path / name)]
        )
        assert code == 0
        outputs.append((tmp_path / name).read_bytes())
    report(capsys, "csv-determinism", outputs[0] == outputs[1])
