"""From-scratch two-layer dense network holding the Q-function.

Architecture: input -> 1013 ReLU units -> 4 linear outputs, one raw
Q-value per compass action. Training is plain SGD on the squared error of
the taken action's output; gradients are computed analytically and the
test suite cross-checks them against central finite differences.

Q-values stay linear (unbounded) so they can regress onto reward-scale
targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HIDDEN_UNITS = 1013
N_ACTIONS = 4


class ShapeError(ValueError):
    """Input vector length does not match the network."""


class NumericalError(ArithmeticError):
    """A gradient came out non-finite."""


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray  # (out_dim,)


@dataclass
class QNetwork:
    layer1: DenseLayer
    layer2: DenseLayer


def _init_layer(in_dim: int, out_dim: int, rng: np.random.Generator) -> DenseLayer:
    # Symmetric uniform init scaled by 1/sqrt(fan-in); biases start at zero.
    scale = (1.0 / in_dim) ** 0.5
    weights = rng.uniform(-scale, scale, size=(out_dim, in_dim))
    return DenseLayer(weights=weights, biases=np.zeros(out_dim))


def init_network(input_size: int, rng: np.random.Generator) -> QNetwork:
    """Build the network for observations of ``input_size`` values.

    The same seed always produces the same parameters.
    """
    return QNetwork(
        layer1=_init_layer(input_size, HIDDEN_UNITS, rng),
        layer2=_init_layer(HIDDEN_UNITS, N_ACTIONS, rng),
    )


def _layer1(net: QNetwork, observation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The observation as a float vector, checked against the network's
    input size, and its layer-1 pre-activation ``W1 @ x + b1``."""
    observation = np.asarray(observation, dtype=float)
    weights, biases = net.layer1.weights, net.layer1.biases
    if observation.shape != weights.shape[1:]:
        raise ShapeError(
            f"observation has shape {observation.shape}, expected {weights.shape[1:]}"
        )
    return observation, weights @ observation + biases


def forward(net: QNetwork, observation: np.ndarray) -> np.ndarray:
    """Q-values for all actions: layer2(relu(layer1(observation)))."""
    _, z1 = _layer1(net, observation)
    return net.layer2.weights @ np.maximum(z1, 0.0) + net.layer2.biases


def train_step(
    net: QNetwork,
    observation: np.ndarray,
    action: int,
    target: float,
    learning_rate: float,
) -> float:
    """One SGD step on the squared error of the taken action's Q-value.

    Only that output's error drives the update, so the layer-2 weights of
    the other actions never move. Parameters are updated in place; the loss
    at the post-update parameters is returned for logging.
    """
    w1, b1 = net.layer1.weights, net.layer1.biases
    w2, b2 = net.layer2.weights, net.layer2.biases

    # Overflow here shows up as non-finite gradients, reported below as
    # NumericalError rather than as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        observation, z1 = _layer1(net, observation)
        action = int(action)
        hidden = np.maximum(z1, 0.0)
        q_action = w2[action] @ hidden + b2[action]

        grad_q = 2.0 * (q_action - target)
        if not np.isfinite(grad_q):
            raise NumericalError("non-finite gradient in train_step")

        # Backprop through the taken action's output only.
        grad_hidden = grad_q * w2[action]
        grad_z1 = np.where(z1 > 0.0, grad_hidden, 0.0)
        if not np.isfinite(grad_z1).all():
            raise NumericalError("non-finite gradient in train_step")

        lr = learning_rate
        w2[action] -= lr * grad_q * hidden
        b2[action] -= lr * grad_q
        # dW1 = outer(lr * grad_z1, x), applied only to the columns where x
        # is nonzero: a zero column of the outer product is an exact 0 and
        # leaves its weights unchanged. Observations are 0/1 and at most a
        # third nonzero, so this skips most of the work. The columns that
        # move get the same products and subtractions as the dense update,
        # so the result is bit-identical (and since x * 1.0 is exact, 0/1
        # inputs skip the multiply). W1 stays row-major although that makes
        # its columns strided: a transposed or Fortran-ordered W1 rounds the
        # `w1 @ x` matvecs differently.
        step = lr * grad_z1
        for j in np.flatnonzero(observation).tolist():
            x_j = observation[j]
            w1[:, j] -= step if x_j == 1.0 else step * x_j
        b1 -= step

        # Post-update loss, without a second full forward pass: the layer-1
        # update shifts each pre-activation by exactly
        # -lr * grad_z1 * (x.x + 1), since dW1 = outer(grad_z1, x), db1 = grad_z1.
        z1_after = z1 - (lr * (observation @ observation + 1.0)) * grad_z1
        q_after = w2[action] @ np.maximum(z1_after, 0.0) + b2[action]
        residual = q_after - target
    return float(residual * residual)

