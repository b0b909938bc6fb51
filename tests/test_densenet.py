"""Network tests; the finite-difference gradient oracle is the anchor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcover.densenet import (
    HIDDEN_UNITS,
    DenseLayer,
    NumericalError,
    QNetwork,
    ShapeError,
    forward,
    init_network,
    train_step,
)


def toy_network():
    """2 inputs -> 1 ReLU hidden unit -> 4 linear outputs, hand-checkable."""
    return QNetwork(
        layer1=DenseLayer(np.array([[1.0, 2.0]]), np.array([0.5])),
        layer2=DenseLayer(
            np.array([[1.0], [-1.0], [2.0], [0.0]]),
            np.array([0.0, 1.0, 0.0, 3.0]),
        ),
    )


def random_small_network(rng, in_dim=6, hidden=5):
    return QNetwork(
        layer1=DenseLayer(rng.normal(0, 0.6, (hidden, in_dim)), rng.normal(0, 0.3, hidden)),
        layer2=DenseLayer(rng.normal(0, 0.6, (4, hidden)), rng.normal(0, 0.3, 4)),
    )


# --- initialization ----------------------------------------------------------


def test_init_shapes_for_5x5_map():
    net = init_network(75, np.random.default_rng(0))
    assert net.layer1.weights.shape == (1013, 75)
    assert net.layer2.weights.shape == (4, 1013)


def test_init_same_seed_identical():
    a = init_network(75, np.random.default_rng(42))
    b = init_network(75, np.random.default_rng(42))
    assert np.array_equal(a.layer1.weights, b.layer1.weights)
    assert np.array_equal(a.layer2.weights, b.layer2.weights)


def test_init_different_seeds_differ():
    a = init_network(75, np.random.default_rng(1))
    b = init_network(75, np.random.default_rng(2))
    assert not np.array_equal(a.layer1.weights, b.layer1.weights)


def test_init_scale_and_zero_biases():
    in_dim = 3 * 3 * 4
    net = init_network(in_dim, np.random.default_rng(7))
    assert np.abs(net.layer1.weights).max() <= (1.0 / in_dim) ** 0.5
    assert np.abs(net.layer2.weights).max() <= (1.0 / HIDDEN_UNITS) ** 0.5
    assert not net.layer1.biases.any()
    assert not net.layer2.biases.any()


# --- forward -----------------------------------------------------------------


def test_forward_zero_network_is_zero():
    net = QNetwork(
        layer1=DenseLayer(np.zeros((3, 4)), np.zeros(3)),
        layer2=DenseLayer(np.zeros((4, 3)), np.zeros(4)),
    )
    assert forward(net, np.ones(4)).tolist() == [0, 0, 0, 0]


def test_forward_hand_computed():
    net = toy_network()
    # z1 = 1*1 + 2*1 + 0.5 = 3.5 -> q = [3.5, -3.5+1, 7, 0+3]
    np.testing.assert_allclose(
        forward(net, np.array([1.0, 1.0])), [3.5, -2.5, 7.0, 3.0]
    )


def test_forward_relu_cuts_negative_preactivation():
    net = toy_network()
    # z1 = -1 - 2 + 0.5 = -2.5 -> hidden 0 -> only biases remain
    np.testing.assert_allclose(
        forward(net, np.array([-1.0, -1.0])), [0.0, 1.0, 0.0, 3.0]
    )


def test_forward_shape_error():
    net = toy_network()
    with pytest.raises(ShapeError):
        forward(net, np.ones(3))


# --- train_step --------------------------------------------------------------


def test_train_step_zero_residual_changes_nothing():
    net = toy_network()
    x = np.array([1.0, 1.0])
    target = float(forward(net, x)[2])
    w1 = net.layer1.weights.copy()
    w2 = net.layer2.weights.copy()
    loss = train_step(net, x, 2, target, 0.1)
    assert loss == 0.0
    assert np.array_equal(net.layer1.weights, w1)
    assert np.array_equal(net.layer2.weights, w2)


def test_train_step_zero_learning_rate():
    net = toy_network()
    x = np.array([1.0, 1.0])
    w1 = net.layer1.weights.copy()
    loss = train_step(net, x, 0, 10.0, 0.0)
    assert np.array_equal(net.layer1.weights, w1)
    assert loss == pytest.approx((3.5 - 10.0) ** 2)


def test_train_step_reduces_loss():
    net = toy_network()
    x = np.array([1.0, 1.0])
    before = float((forward(net, x)[0] - 10.0) ** 2)
    after = train_step(net, x, 0, 10.0, 0.01)
    assert after < before


def test_train_step_returns_post_update_loss():
    rng = np.random.default_rng(9)
    net = random_small_network(rng)
    x = rng.normal(0, 1, 6)
    loss = train_step(net, x, 1, 4.0, 0.05)
    assert loss == pytest.approx(float((forward(net, x)[1] - 4.0) ** 2), rel=1e-12)


def test_train_step_untaken_action_isolation():
    rng = np.random.default_rng(10)
    net = random_small_network(rng)
    x = rng.normal(0, 1, 6)
    w2 = net.layer2.weights.copy()
    b2 = net.layer2.biases.copy()
    train_step(net, x, 2, 5.0, 0.05)
    for a in (0, 1, 3):
        assert np.array_equal(net.layer2.weights[a], w2[a])
        assert net.layer2.biases[a] == b2[a]
    assert not np.array_equal(net.layer2.weights[2], w2[2])
    assert net.layer2.biases[2] != b2[2]


def test_train_step_shape_error():
    with pytest.raises(ShapeError):
        train_step(toy_network(), np.ones(5), 0, 1.0, 0.1)


def test_train_step_non_finite_raises():
    net = toy_network()
    net.layer1.weights[0, 0] = np.inf
    with pytest.raises(NumericalError):
        train_step(net, np.array([1.0, 1.0]), 0, 0.0, 0.1)


def test_train_step_deterministic_sequences():
    def run():
        rng = np.random.default_rng(33)
        net = init_network(12, rng)
        for _ in range(40):
            x = rng.integers(0, 2, 12).astype(float)
            train_step(net, x, int(rng.integers(4)), float(rng.normal(0, 20)), 0.001)
        return net

    a, b = run(), run()
    assert np.array_equal(a.layer1.weights, b.layer1.weights)
    assert np.array_equal(a.layer1.biases, b.layer1.biases)
    assert np.array_equal(a.layer2.weights, b.layer2.weights)
    assert np.array_equal(a.layer2.biases, b.layer2.biases)


# --- sparse layer-1 update ------------------------------------------------------


def observation_of(kind, rng, size):
    if kind == "binary":  # the environment's 0/1 observations
        return rng.integers(0, 2, size).astype(float)
    if kind == "sparse_real":
        return rng.normal(0, 1, size) * (rng.random(size) < 0.3)
    if kind == "zeros":
        return np.zeros(size)
    return rng.normal(0, 1, size)  # "dense": every entry nonzero


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "sparse_real", "zeros", "dense"]),
    in_dim=st.integers(1, 12),
    hidden=st.integers(1, 8),
    action=st.integers(0, 3),
    target=st.floats(-100, 100),
    learning_rate=st.sampled_from([1.0, 0.05, 0.0002]),
)
def test_train_step_matches_dense_outer_update(
    seed, kind, in_dim, hidden, action, target, learning_rate
):
    """train_step skips the zero columns of the layer-1 outer product; the
    result must equal the dense update bit for bit, whatever the input."""
    rng = np.random.default_rng(seed)
    net = random_small_network(rng, in_dim, hidden)
    x = observation_of(kind, rng, in_dim)
    w1, b1 = net.layer1.weights.copy(), net.layer1.biases.copy()
    w2, b2 = net.layer2.weights.copy(), net.layer2.biases.copy()

    # The dense reference, gradients computed here from the parameters.
    z1 = w1 @ x + b1
    h = np.maximum(z1, 0.0)
    grad_q = 2.0 * ((w2[action] @ h + b2[action]) - target)
    grad_z1 = np.where(z1 > 0.0, grad_q * w2[action], 0.0)
    lr = learning_rate
    w2[action] -= lr * grad_q * h
    b2[action] -= lr * grad_q
    w1 -= np.outer(lr * grad_z1, x)
    b1 -= lr * grad_z1
    z1_after = z1 - (lr * (x @ x + 1.0)) * grad_z1
    residual = w2[action] @ np.maximum(z1_after, 0.0) + b2[action] - target

    loss = train_step(net, x, action, target, learning_rate)
    assert same_bits(net.layer1.weights, w1)
    assert same_bits(net.layer1.biases, b1)
    assert same_bits(net.layer2.weights, w2)
    assert same_bits(net.layer2.biases, b2)
    assert same_bits(loss, float(residual * residual))


# --- gradient oracle ---------------------------------------------------------


def reference_loss(params, x, action, target):
    w1, b1, w2, b2 = params
    hidden = np.maximum(w1 @ x + b1, 0.0)
    q = w2 @ hidden + b2
    return float((q[action] - target) ** 2)


def numerical_gradients(params, x, action, target, eps=1e-5):
    grads = []
    for which in range(4):
        grad = np.zeros_like(params[which])
        it = np.nditer(grad, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = [p.copy() for p in params]
            bumped[which][idx] += eps
            up = reference_loss(bumped, x, action, target)
            bumped[which][idx] -= 2 * eps
            down = reference_loss(bumped, x, action, target)
            grad[idx] = (up - down) / (2 * eps)
        grads.append(grad)
    return grads


def test_gradients_match_finite_differences():
    """Backprop vs central finite differences on 20 random small nets.

    With learning_rate 1.0 a single SGD step moves each parameter by
    exactly its gradient, so (before - after) recovers backprop's output
    without precision loss.
    """
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(trial)
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
        numeric = numerical_gradients(params, x, action, target)
        for an, nu in zip(analytic, numeric):
            scale = np.maximum(np.maximum(np.abs(an), np.abs(nu)), 1e-8)
            worst = max(worst, float((np.abs(an - nu) / scale).max()))
    assert worst < 1e-4

