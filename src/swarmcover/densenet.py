"""From-scratch two-layer dense network holding the Q-function.

Architecture: input -> 1013 ReLU units -> 4 linear outputs, one raw
Q-value per compass action. Training is plain SGD on the squared error of
the taken action's output; gradients are computed analytically and the
test suite cross-checks them against central finite differences. A replay
pass of 16 experiences is one batched ``train_step`` call that equals 16
sequential SGD steps up to rounding.

Q-values stay linear (unbounded) so they can regress onto reward-scale
targets.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HIDDEN_UNITS = 1013
N_ACTIONS = 4


class ShapeError(ValueError):
    """Input vector length does not match the network."""


class NumericalError(ArithmeticError):
    """A gradient, Q-value or loss came out non-finite: training diverged."""


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


@functools.cache
def _openblas_thread_calls():
    """The get/set thread-count functions of the OpenBLAS that numpy's
    wheel bundles, or None when numpy runs on another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_{}64_", "openblas_{}"):
            get = getattr(lib, name.format("get_num_threads"), None)
            set_ = getattr(lib, name.format("set_num_threads"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    A replay pass multiplies 32x75 by 75x1013 matrices. A second BLAS
    thread does not speed that up, and when the other cores are busy, as
    with parallel runs, its waiting makes training several times slower.
    Without a bundled OpenBLAS this does nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _layer1(net: QNetwork, observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The observations as floats, one per row (or a single vector),
    checked against the network's input size, and their layer-1
    pre-activations ``x @ W1.T + b1``, one row per observation.

    The bias is added in place: the broadcast form allocates a second
    batch-sized temporary. A single vector rounds exactly like ``W1 @ x``.
    """
    observations = np.asarray(observations, dtype=float)
    weights, biases = net.layer1.weights, net.layer1.biases
    if observations.ndim > 2 or observations.shape[-1:] != weights.shape[1:]:
        raise ShapeError(
            f"observation has shape {observations.shape}, expected {weights.shape[1:]}"
        )
    z1 = observations @ weights.T
    z1 += biases
    return observations, z1


def forward(net: QNetwork, observation: np.ndarray) -> np.ndarray:
    """Q-values for all actions: layer2(relu(layer1(observation))).

    Raises NumericalError, rather than warning, when they come out
    non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, z1 = _layer1(net, observation)
        qvalues = net.layer2.weights @ np.maximum(z1, 0.0) + net.layer2.biases
    if not np.isfinite(qvalues).all():
        raise NumericalError("non-finite Q-values in forward")
    return qvalues


def train_step(
    net: QNetwork,
    observations: np.ndarray,
    actions,
    targets,
    learning_rate: float,
    next_observations: np.ndarray | None = None,
) -> float:
    """SGD steps on the squared error of each taken action's Q-value.

    ``observations`` is one vector, with one action and a float target, or
    k rows taken as k steps in order, each from the parameters the steps
    before it left. Then ``targets`` holds k floats or, when k
    ``next_observations`` are given, is called as ``targets(i, qvalues)``
    with the Q-values of next observation i at the parameters step i
    starts from. Only the taken action's error drives a step, so the
    layer-2 weights of the other actions never move. Parameters are
    updated in place; the mean loss, each at the parameters right after its
    step, is returned for logging.

    Layer 1 is batched through the rank-1 identity of its update: step j
    moves W1 by ``-outer(s_j, x_j)`` and b1 by ``-s_j``, which moves the
    pre-activation of any vector v by exactly ``-s_j * (x_j . v + 1)``. So
    one product gives every pre-activation at the starting parameters,
    each step corrects its own rows for the steps before it, and W1 takes
    all k steps at the end in one product. This equals k sequential steps
    up to rounding, and a single step bit for bit.
    """
    w1, b1 = net.layer1.weights, net.layer1.biases
    w2, b2 = net.layer2.weights, net.layer2.biases
    lr = learning_rate
    observations = np.asarray(observations, dtype=float)
    if observations.ndim == 1:
        observations, actions, targets = observations[None], [actions], [targets]
    k = len(observations)
    vectors = observations
    if next_observations is not None:
        vectors = np.concatenate((observations, next_observations))

    # Overflow here shows up as non-finite gradients or losses, reported as
    # NumericalError rather than as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        vectors, z = _layer1(net, vectors)
        x = vectors[:k]
        # gram[j, c] = x_j . v_c + 1: how far step j moves row c of z.
        gram = x @ vectors.T
        gram += 1.0
        steps = np.empty((k, b1.size))
        total = 0.0
        for i in range(k):
            # Row i of z, then row k + i when next observations are given.
            rows = z[i::k]
            if i:
                rows = rows - gram[:i, i::k].T @ steps[:i]
            z1 = rows[0]
            if next_observations is None:
                target = targets[i]
            else:
                target = targets(i, w2 @ np.maximum(rows[1], 0.0) + b2)
            action = int(actions[i])
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

            w2[action] -= lr * grad_q * hidden
            b2[action] -= lr * grad_q
            np.multiply(lr, grad_z1, out=steps[i])

            # Post-update loss, without a second forward pass: this step
            # alone shifts z1 by -lr * grad_z1 * (x.x + 1).
            z1_after = z1 - (lr * gram[i, i]) * grad_z1
            residual = w2[action] @ np.maximum(z1_after, 0.0) + b2[action] - target
            total += residual * residual
        w1 -= steps.T @ x
        b1 -= steps.sum(axis=0)
        loss = total / k
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss in train_step")
    return float(loss)
