"""From-scratch two-layer dense network holding the Q-function.

Architecture: input -> 1013 ReLU units -> 4 linear outputs, one raw
Q-value per compass action. Training is plain SGD on the squared error of
the taken action's output; gradients are computed analytically and the
test suite cross-checks them against central finite differences. A replay
pass of 16 experiences is one batched ``train_step`` call that equals 16
sequential SGD steps up to rounding. It returns the loss its steps
descend, the mean squared TD error at the parameters each step starts
from, so a pass evaluates no sample twice. It writes into one kept set of
scratch arrays, for the layer-1 weight shape in use (the stacked inputs,
each sample's step, and one buffer that holds their pre-activations
during the pass and the summed W1 step at its end), so ``train_step`` is
neither re-entrant nor thread-safe.

Q-values stay linear (unbounded) so they can regress onto reward-scale
targets.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HIDDEN_UNITS = 1013
N_ACTIONS = 4


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


_DRAW_ROWS = 64  # rows of weights drawn at a time


def _init_layer(
    in_dim: int, out_dim: int, rng: np.random.Generator, columns=None
) -> DenseLayer:
    # Symmetric uniform init scaled by 1/sqrt(fan-in); biases start at zero.
    scale = (1.0 / in_dim) ** 0.5
    columns = np.arange(in_dim) if columns is None else np.asarray(columns)
    weights = np.empty((out_dim, len(columns)))
    for start in range(0, out_dim, _DRAW_ROWS):
        block = weights[start : start + _DRAW_ROWS]
        draw = rng.uniform(-scale, scale, size=(len(block), in_dim))
        draw.take(columns, axis=1, out=block)
    return DenseLayer(weights=weights, biases=np.zeros(out_dim))


def init_network(input_size: int, rng: np.random.Generator, columns=None) -> QNetwork:
    """Build the network for observations of ``input_size`` values.

    The same seed always produces the same parameters. ``columns``, an
    index of the inputs the network reads, keeps only those layer-1
    columns (by default every input). Whole rows are still drawn, a block
    at a time, so the random stream, the generator's state afterwards and
    every kept weight are those of the full network, yet no full-width W1
    is made.
    """
    return QNetwork(
        layer1=_init_layer(input_size, HIDDEN_UNITS, rng, columns),
        layer2=_init_layer(HIDDEN_UNITS, N_ACTIONS, rng),
    )


_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def _openblas_functions(*names: str) -> list | None:
    """The functions ``names`` of the OpenBLAS that numpy's wheel bundles,
    or None when numpy runs on another BLAS. Builds prefix the symbols with
    ``scipy_openblas_`` or ``openblas_``, and suffix them with ``64_`` when
    they use 64-bit indices; the first form that has every name is used."""
    for lib_path in sorted(_NUMPY_LIBS.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                found = [getattr(lib, f"{prefix}{name}{suffix}", None) for name in names]
                if None not in found:
                    return found
    return None


@functools.cache
def _openblas_thread_calls():
    """The get/set thread-count functions of numpy's bundled OpenBLAS, or
    None."""
    calls = _openblas_functions("get_num_threads", "set_num_threads")
    if calls is not None:
        get, set_ = calls
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
    return calls


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    A replay pass on grove_5x5 multiplies 32x46 by 46x1013 matrices, which
    a second BLAS thread does not speed up. Measured on a 2-core host where
    OpenBLAS defaults to 2 threads, each run a fresh interpreter with no
    thread variable set, training grove_5x5 with 1 UAV (seed 7, 8 episodes,
    budget 150: 1 013 moves), over two sessions:

    - one run alone: 517-624 µs per move with this, 569-1 432 without;
    - two runs side by side: 512-648 µs with it, 4 534-16 063 without.

    The traces were identical in every run. Without a bundled OpenBLAS this
    does nothing.
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


def _checked_inputs(net: QNetwork, inputs, ndim: int) -> np.ndarray:
    """``inputs`` as floats, after checking that they are ``ndim``-D
    (1: one vector, 2: one vector per row) and of the network's input
    size."""
    inputs = np.asarray(inputs, dtype=float)
    size = net.layer1.weights.shape[1]
    if inputs.ndim != ndim or inputs.shape[-1] != size:
        expected = f"(k, {size})" if ndim == 2 else f"({size},)"
        raise ValueError(f"input has shape {inputs.shape}, expected {expected}")
    return inputs


def forward(net: QNetwork, observation: np.ndarray) -> np.ndarray:
    """Q-values for all actions: layer2(relu(layer1(observation))).

    Raises NumericalError, rather than warning, when they come out
    non-finite, and ValueError unless ``observation`` is one vector of the
    network's input size.
    """
    observation = _checked_inputs(net, observation, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        hidden = np.maximum(net.layer1.weights @ observation + net.layer1.biases, 0.0)
        qvalues = net.layer2.weights @ hidden + net.layer2.biases
    if not np.isfinite(qvalues).all():
        raise NumericalError("non-finite Q-values in forward")
    return qvalues


class _Scratch:
    """The arrays a replay pass writes into, for one W1 shape and up to
    ``len(steps)`` samples. Kept between passes, so that a pass allocates
    only small temporaries: its (k, 2k) Gram matrix, (2, hidden) row
    corrections, each sample's (hidden,) ReLU sign row, the b1 step, and
    numpy's broadcast buffer for the bias.

    ``z`` and ``w1_step`` are views of one buffer: the pre-activations are
    dead once the per-sample loop ends, and the W1 step reads only the
    steps and the inputs. So a set holds ``vectors``, ``steps`` and
    ``max(2 * capacity * hidden, hidden * inputs)`` floats."""

    def __init__(self, capacity: int, hidden: int, inputs: int) -> None:
        # Small, but a fresh concatenation lifts a warm 16-sample pass's
        # allocation peak from 67 KB to 86 KB at 75 inputs, 129 KB at 243.
        self.vectors = np.empty((2 * capacity, inputs))  # observations, then next
        self.steps = np.empty((capacity, hidden))  # lr * grad_z1 of each sample
        shared = np.empty(max(2 * capacity * hidden, hidden * inputs))
        # The vectors' pre-activations, then ReLUs; after the loop, the W1 step.
        self.z = shared[: 2 * capacity * hidden].reshape(2 * capacity, hidden)
        self.w1_step = shared[: hidden * inputs].reshape(hidden, inputs)


# The one set, for the W1 shape last trained; its capacity a power of two.
_scratch: _Scratch | None = None


def _scratch_for(w1_shape: tuple[int, ...], k: int) -> _Scratch:
    global _scratch
    if _scratch is None or _scratch.w1_step.shape != w1_shape or len(_scratch.steps) < k:
        # Free the old set before allocating its successor.
        _scratch = None
        _scratch = _Scratch(1 << (k - 1).bit_length(), *w1_shape)
    return _scratch


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
    updated in place. The mean over the k samples of ``(Q(s, a) -
    target) ** 2``, each at the parameters its step starts from, is
    returned for logging: the squared TD error the pass descends. A batch
    whose parts differ in length, or do not fit the network, raises
    ValueError; a non-finite gradient or loss raises NumericalError.

    Layer 1 is batched through the rank-1 identity of its update: step j
    moves W1 by ``-outer(s_j, x_j)`` and b1 by ``-s_j``, which moves the
    pre-activation of any vector v by exactly ``-s_j * (x_j . v + 1)``. So
    one product gives every pre-activation at the starting parameters,
    each step corrects its own rows for the steps before it, and W1 takes
    all k steps at the end in one product. This equals k sequential steps
    up to rounding, and a single step bit for bit.

    The pass writes into one kept set of scratch arrays (``_Scratch``),
    replaced when the W1 shape changes, so it allocates no large temporary.
    That makes ``train_step`` neither re-entrant nor thread-safe: a
    ``targets`` callable must not call it.
    """
    w1, b1 = net.layer1.weights, net.layer1.biases
    w2, b2 = net.layer2.weights, net.layer2.biases
    lr = learning_rate
    observations = np.asarray(observations, dtype=float)
    if observations.ndim == 1:
        observations, actions, targets = observations[None], [actions], [targets]
    observations = _checked_inputs(net, observations, 2)
    k = len(observations)
    if not k:
        raise ValueError("no observations")
    if len(actions) != k:
        raise ValueError(f"{len(actions)} actions for {k} observations")
    scratch = _scratch_for(w1.shape, k)
    if next_observations is None:
        if len(targets) != k:
            raise ValueError(f"{len(targets)} targets for {k} observations")
        vectors = observations
    else:
        next_observations = _checked_inputs(net, next_observations, 2)
        if len(next_observations) != k:
            raise ValueError(
                f"{len(next_observations)} next observations for {k} observations"
            )
        vectors = np.concatenate(
            (observations, next_observations), out=scratch.vectors[: 2 * k]
        )

    # Overflow here shows up as non-finite gradients or losses, reported as
    # NumericalError rather than as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.matmul(vectors, w1.T, out=scratch.z[: len(vectors)])
        z += b1  # in place: the broadcast form allocates a second batch-sized temporary
        x = vectors[:k]
        # gram[j, c] = x_j . v_c + 1: how far step j moves row c of z.
        gram = x @ vectors.T
        gram += 1.0
        gram_t = gram.T
        steps = scratch.steps[:k]
        total = 0.0
        for i in range(k):
            # Row i of z, then row k + i when next observations are given,
            # corrected in place for the steps before this one, then taken
            # through the ReLU in place: no later step reads them.
            rows = z[i::k]
            if i:
                rows -= gram_t[i::k, :i] @ steps[:i]
            np.maximum(rows, 0.0, out=rows)
            hidden = rows[0]
            if next_observations is None:
                target = targets[i]
            else:
                target = targets(i, w2 @ rows[1] + b2)
            action = int(actions[i])
            w2a, b2a = w2[action], float(b2[action])
            residual = float(w2a @ hidden) + b2a - target
            grad_q = 2.0 * residual
            if not math.isfinite(grad_q):
                raise NumericalError("non-finite gradient in train_step")
            # The loss this step descends, in sample order.
            total += residual * residual

            # Backprop through the taken action's output only: step i is
            # lr * grad_z1, and grad_z1 is grad_q * w2[action] where z1 > 0
            # and zero elsewhere. z1 > 0 exactly where the ReLU row is > 0,
            # since a NaN or +inf in z1 would have made grad_q non-finite.
            # The row's sign masks w2[action], which a finite grad_q shows
            # is finite, so no inf * 0 = NaN arises (masking an overflowed
            # step would): active units keep their bits, inactive get +-0.
            step = np.multiply(w2a, np.sign(hidden), out=steps[i])
            step *= grad_q
            step *= lr
            hidden *= lr * grad_q
            w2a -= hidden
            b2[action] = b2a - lr * grad_q
        if not np.isfinite(steps).all():
            raise NumericalError("non-finite gradient in train_step")
        w1 -= np.matmul(steps.T, x, out=scratch.w1_step)
        b1 -= steps.sum(axis=0)
    loss = float(total / k)
    if not math.isfinite(loss):
        raise NumericalError("non-finite loss in train_step")
    return loss
