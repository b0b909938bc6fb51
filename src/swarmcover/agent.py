"""Q-learning policy layer for the swarm.

Holds the pieces between the grid environment and the experiment loop:
the bounded FIFO replay memory, epsilon-greedy action selection, the
Bellman target, ``step_swarm``, which makes one UAV's move, and the
controller that wires networks and memories to UAVs in one of two modes:

* ``local``  -- every UAV owns a private network and a private memory;
* ``global`` -- one shared network and one shared memory, experiences
  appended in the interleaved order the UAVs act.

With a single UAV the two modes build identical state and consume the
random stream identically, so their runs coincide move for move.

The networks read only the observation entries the map can set
(``gridworld.live_inputs``); every other entry of the three-plane image is
0 in every state, so dropping its weights leaves the same function.
``SwarmController.observe`` is the one place that cuts them out. The turn
order is the caller's (``experiment.run_episode``), which hands each move
the observation the previous move ended in, so each state is encoded once.
``select_action`` takes the Q-values as a callable and draws its coin
first, so a move runs ``forward`` only when it acts greedily: an exploring
move never reads a Q-value.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .densenet import QNetwork, forward, init_network, train_step
from .gridworld import (
    Action,
    SwarmState,
    encode_observation,
    live_inputs,
    transition,
)

if TYPE_CHECKING:
    from .experiment import ExperimentSpec

LOCAL = "local"
GLOBAL = "global"
MODES = (LOCAL, GLOBAL)


@dataclass(frozen=True)
class Experience:
    """One transition as seen by a single UAV. The observations hold the
    live entries (``SwarmController.live``) of the encoded states.

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

    def append(self, experience: Experience) -> None:
        self._buffer.append(experience)

    def sample(self, k: int, rng: np.random.Generator) -> list[Experience]:
        """Uniform sample of min(k, len) experiences without replacement."""
        if not self._buffer:
            raise ValueError("cannot sample from an empty memory")
        k = min(k, len(self._buffer))
        indices = rng.choice(len(self._buffer), size=k, replace=False)
        return [self._buffer[i] for i in indices.tolist()]


class SwarmController:
    """Networks and replay memories for one run, wired by the spec's mode.

    Local mode builds one (network, memory) pair per UAV; global mode
    builds a single shared pair. Construction draws initial weights from
    ``rng`` in UAV order, so a fixed seed fixes every parameter.

    Each network keeps only the layer-1 columns of the ``live`` entries.
    ``init_network`` draws them from whole rows of the three-plane image's
    width, so the random stream and every kept weight are those of a
    full-width network, but no full-width W1 is made.
    """

    def __init__(self, spec: ExperimentSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.live = live_inputs(spec.grid)
        # The one mode rule: the index of each UAV's network and memory.
        self._model_of = range(spec.n_uavs) if spec.mode == LOCAL else [0] * spec.n_uavs
        n_models = len(set(self._model_of))
        image_size = 3 * spec.grid.rows * spec.grid.cols
        self.networks = [
            init_network(image_size, rng, columns=self.live) for _ in range(n_models)
        ]
        self.memories = [ReplayMemory(spec.memory_size) for _ in range(n_models)]

    def network_for(self, uav: int) -> QNetwork:
        return self.networks[self._model_of[uav]]

    def memory_for(self, uav: int) -> ReplayMemory:
        return self.memories[self._model_of[uav]]

    def observe(self, state: SwarmState) -> np.ndarray:
        """What the networks read of ``state``: the live entries of its encoding."""
        return encode_observation(self.spec.grid, state)[self.live]


def select_action(
    qvalues: Callable[[], np.ndarray], epsilon: float, rng: np.random.Generator
) -> Action:
    """Epsilon-greedy pick: explore uniformly with probability epsilon,
    otherwise take the argmax (ties broken by lowest action code).

    ``qvalues`` is a zero-argument callable that returns the Q-values. The
    coin is drawn first, and ``qvalues`` is called only on a greedy pick, so
    an exploring move computes no Q-value."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if rng.random() < epsilon:
        return Action(int(rng.integers(len(Action))))
    return Action(int(np.argmax(qvalues())))


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
    sequential experience replay. Returns the mean squared TD error of the
    batch, each sample's at the parameters its step starts from."""
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
    uav: int,
    observation: np.ndarray,
    controller: SwarmController,
    epsilon: float,
    rng: np.random.Generator,
) -> tuple[SwarmState, Experience]:
    """Move one UAV on the spec's map: from ``observation``, the controller's
    view of ``state``, the UAV picks an action, moves, records the experience
    in its memory and trains from that memory. The network's Q-values for
    ``observation`` are computed only when the pick is greedy. The
    experience's next observation is the view of the state the move leaves,
    and it is terminal when that state ends the episode: coverage is
    complete or the spec's episode budget is spent."""
    spec = controller.spec
    network, memory = controller.network_for(uav), controller.memory_for(uav)
    action = select_action(lambda: forward(network, observation), epsilon, rng)
    state, outcome = transition(spec.grid, state, uav, action, spec.allow_shared_cells)
    next_observation = controller.observe(state)
    experience = Experience(
        observation, action, outcome.reward, next_observation, spec.episode_over(state)
    )
    memory.append(experience)
    train_from_memory(memory, network, spec, rng)
    return state, experience
