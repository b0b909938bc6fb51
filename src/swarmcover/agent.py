"""Q-learning policy layer for the swarm.

Holds the pieces between the grid environment and the experiment loop:
the bounded FIFO replay memory, epsilon-greedy action selection, the
Bellman target, and the controller that wires networks and memories to
UAVs in one of two modes:

* ``local``  -- every UAV owns a private network and a private memory;
* ``global`` -- one shared network and one shared memory, experiences
  appended in the interleaved order the UAVs act.

With a single UAV the two modes build identical state and consume the
random stream identically, so their runs coincide move for move.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .densenet import QNetwork, forward, init_network, train_step
from .gridworld import (
    Action,
    SwarmState,
    encode_observation,
    initial_swarm_state,
    transition,
)

if TYPE_CHECKING:
    from .experiment import ExperimentSpec

LOCAL = "local"
GLOBAL = "global"
MODES = (LOCAL, GLOBAL)


@dataclass(frozen=True)
class Experience:
    """One transition as seen by a single UAV.

    ``terminal`` is true when the move finished the episode, either by
    completing coverage or by exhausting the step budget.
    """

    observation: np.ndarray
    action: Action
    reward: float
    next_observation: np.ndarray
    terminal: bool


class ReplayMemory:
    """Bounded FIFO buffer of experiences (oldest evicted first)."""

    def __init__(self, capacity: int) -> None:
        self._buffer: deque[Experience] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self):
        return iter(self._buffer)

    def append(self, experience: Experience) -> None:
        self._buffer.append(experience)

    def sample(self, k: int, rng: np.random.Generator) -> list[Experience]:
        """Uniform sample of min(k, len) experiences without replacement."""
        if not self._buffer:
            raise ValueError("cannot sample from an empty memory")
        k = min(k, len(self._buffer))
        indices = rng.choice(len(self._buffer), size=k, replace=False)
        return [self._buffer[int(i)] for i in indices]


class SwarmController:
    """Networks and replay memories for one run, wired by the spec's mode.

    Local mode builds one (network, memory) pair per UAV; global mode
    builds a single shared pair. Construction draws initial weights from
    ``rng`` in UAV order, so a fixed seed fixes every parameter.
    """

    def __init__(self, spec: ExperimentSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        n_models = spec.n_uavs if spec.mode == LOCAL else 1
        start = initial_swarm_state(spec.grid, spec.n_uavs)
        input_size = encode_observation(spec.grid, start).size
        self.networks = [init_network(input_size, rng) for _ in range(n_models)]
        self.memories = [ReplayMemory(spec.memory_size) for _ in range(n_models)]

    def network_for(self, uav: int) -> QNetwork:
        return self.networks[uav if self.spec.mode == LOCAL else 0]

    def memory_for(self, uav: int) -> ReplayMemory:
        return self.memories[uav if self.spec.mode == LOCAL else 0]


def select_action(
    qvalues: np.ndarray, epsilon: float, rng: np.random.Generator
) -> Action:
    """Epsilon-greedy pick: explore uniformly with probability epsilon,
    otherwise take the argmax (ties broken by lowest action code)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if rng.random() < epsilon:
        return Action(int(rng.integers(len(Action))))
    return Action(int(np.argmax(qvalues)))


def bellman_target(
    reward: float, gamma: float, next_qvalues: np.ndarray, terminal: bool
) -> float:
    """One-step Q-learning target: r + gamma * max Q(s', .), or r alone
    when the transition ended the episode."""
    if terminal:
        return float(reward)
    return float(reward + gamma * next_qvalues.max())


def train_from_memory(
    memory: ReplayMemory,
    net: QNetwork,
    spec: ExperimentSpec,
    rng: np.random.Generator,
) -> float:
    """One training pass: sample up to batch_size experiences and train on
    them in sampled order, in one batched train_step. Each Bellman target
    comes from the network as the samples before it left it, as in
    sequential experience replay. Returns the mean loss."""
    batch = memory.sample(spec.batch_size, rng)

    def target(i: int, next_qvalues: np.ndarray) -> float:
        exp = batch[i]
        return bellman_target(exp.reward, spec.gamma, next_qvalues, exp.terminal)

    return train_step(
        net,
        np.array([exp.observation for exp in batch]),
        [exp.action for exp in batch],
        target,
        spec.learning_rate,
        np.array([exp.next_observation for exp in batch]),
    )


def step_swarm(
    state: SwarmState,
    controller: SwarmController,
    epsilon: float,
    rng: np.random.Generator,
) -> tuple[SwarmState, list[Experience], bool]:
    """Advance the swarm one time step on the spec's map: each UAV in index
    order encodes its observation, picks an action, moves, records the
    experience, and trains from its memory. Stops mid-step once coverage
    is complete or the spec's episode budget runs out; UAVs after the
    finishing move do not act.
    """
    spec = controller.spec
    grid = spec.grid
    experiences: list[Experience] = []
    done = False
    for uav in range(state.n_uavs):
        network, memory = controller.network_for(uav), controller.memory_for(uav)
        observation = encode_observation(grid, state)
        qvalues = forward(network, observation)
        action = select_action(qvalues, epsilon, rng)
        state, outcome = transition(grid, state, uav, action, spec.allow_shared_cells)
        next_observation = encode_observation(grid, state)
        done = spec.episode_over(state)
        experience = Experience(observation, action, outcome.reward, next_observation, done)
        experiences.append(experience)
        memory.append(experience)
        train_from_memory(memory, network, spec, rng)
        if done:
            break
    return state, experiences, done
