"""Network tests; the finite-difference gradient oracle is the anchor."""

import copy
import ctypes
import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmcover import ExperimentSpec, densenet, run_seed
from swarmcover.agent import bellman_target
from swarmcover.densenet import (
    HIDDEN_UNITS,
    DenseLayer,
    NumericalError,
    QNetwork,
    _openblas_thread_calls,
    forward,
    init_network,
    one_blas_thread,
    train_step,
)
from swarmcover.gridworld import BUNDLED_MAP_NOTES, load_bundled_map


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


@st.composite
def sizes_and_columns(draw):
    size = draw(st.integers(1, 300))
    columns = draw(st.sets(st.integers(0, size - 1), min_size=1))
    return size, np.array(sorted(columns))


@settings(max_examples=60, deadline=None)
@given(sizes_and_columns(), st.integers(0, 2**32 - 1))
def test_kept_columns_are_the_full_draws_bit_for_bit(size_and_columns, seed):
    """``columns`` keeps layer-1 columns of the full-width draw: the same
    kept weights, layer 2 and biases, and the generator left in the same
    state."""
    size, columns = size_and_columns
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    narrow = init_network(size, rng_a, columns=columns)
    full = init_network(size, rng_b)
    assert narrow.layer1.weights.flags.c_contiguous
    assert np.array_equal(narrow.layer1.weights, full.layer1.weights[:, columns])
    assert np.array_equal(narrow.layer1.biases, full.layer1.biases)
    assert np.array_equal(narrow.layer2.weights, full.layer2.weights)
    assert np.array_equal(narrow.layer2.biases, full.layer2.biases)
    assert np.array_equal(rng_a.random(4), rng_b.random(4))


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
    with pytest.raises(ValueError, match=re.escape("input has shape (3,), expected (2,)")):
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
    """Each call returns the loss at the parameters it starts from, so a
    second identical call reports the loss the first step left."""
    net = toy_network()
    x = np.array([1.0, 1.0])
    before = train_step(net, x, 0, 10.0, 0.01)
    after = train_step(net, x, 0, 10.0, 0.01)
    assert after < before


def test_train_step_returns_pre_step_loss():
    rng = np.random.default_rng(9)
    net = random_small_network(rng)
    x = rng.normal(0, 1, 6)
    expected = float((forward(net, x)[1] - 4.0) ** 2)
    loss = train_step(net, x, 1, 4.0, 0.05)
    assert loss == pytest.approx(expected, rel=1e-12)


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
    with pytest.raises(ValueError, match=re.escape("input has shape (1, 5), expected (k, 2)")):
        train_step(toy_network(), np.ones(5), 0, 1.0, 0.1)


@pytest.mark.parametrize(
    "rows, next_rows, n_actions, n_targets, message",
    [
        # Ids name a case by its sizes, so it keeps its name if its message changes.
        pytest.param(2, 3, 2, None, "3 next observations for 2 observations", id="2-3-2-None"),
        pytest.param(2, 1, 2, None, "1 next observations for 2 observations", id="2-1-2-None"),
        pytest.param(2, None, 1, 2, "1 actions for 2 observations", id="2-None-1-2"),
        pytest.param(2, None, 2, 1, "1 targets for 2 observations", id="2-None-2-1"),
        pytest.param(2, None, 3, 2, "3 actions for 2 observations", id="2-None-3-2"),
        pytest.param(0, None, 0, 0, "no observations", id="0-None-0-0"),
    ],
)
def test_train_step_batch_length_mismatch_raises(
    rows, next_rows, n_actions, n_targets, message
):
    net = toy_network()
    observations = np.ones((rows, 2))
    actions = [0] * n_actions
    if next_rows is None:
        args = (observations, actions, [1.0] * n_targets, 0.1)
    else:
        args = (observations, actions, lambda i, q: 1.0, 0.1, np.ones((next_rows, 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_step(net, *args)


def test_forward_rejects_a_batch():
    with pytest.raises(ValueError, match=re.escape("input has shape (2, 2), expected (2,)")):
        forward(toy_network(), np.ones((2, 2)))


def test_train_step_non_finite_raises():
    net = toy_network()
    net.layer1.weights[0, 0] = np.inf
    with pytest.raises(NumericalError):
        train_step(net, np.array([1.0, 1.0]), 0, 0.0, 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "target, finite_losses, error",
    [
        (1e150, [1e300], "non-finite gradient"),
        (1e155, [], "non-finite loss"),
        (1e200, [], "non-finite loss"),
    ],
    ids=["1e+150", "1e+155", "1e+200"],
)
def test_train_step_overflowing_loss_raises(target, finite_losses, error):
    """A residual this far off overflows; that must be a NumericalError,
    not a numpy warning or an infinite loss. From 1e155 the squared
    residual itself overflows, so the first call raises. At 1e150 that
    loss (1e300) is finite and returned, but the step it takes leaves
    parameters whose next gradient overflows, so the next call raises."""
    net = toy_network()
    x = np.array([1.0, 1.0])
    for expected in finite_losses:
        assert train_step(net, x, 0, target, 1e-9) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(NumericalError, match=error):
        train_step(net, x, 0, target, 1e-9)


def test_step_overflow_at_an_inactive_unit_is_exactly_zero():
    """Unit 1 is off at x, and its huge W2 weight makes its step overflow.
    The ReLU mask must zero that step to +0.0, where a float multiply by
    the mask would give inf * 0 = NaN and a NumericalError."""
    net = QNetwork(
        layer1=DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2)),
        layer2=DenseLayer(np.array([[1.0, 1e300], [0, 0], [0, 0], [0, 0]]), np.zeros(4)),
    )
    before = copy.deepcopy(net.layer1)
    assert train_step(net, np.array([1.0, 0.0]), 0, -1e10, 1.0) == 1.0000000002e20
    assert same_bits(net.layer1.weights[1], before.weights[1])  # [-1.0, +0.0]
    assert same_bits(net.layer1.biases[1], before.biases[1])  # +0.0


def test_masked_step_read_by_a_later_sample_is_exactly_zero():
    """As above, in a pass of two: unit 1 is off at both inputs, and the
    first step overflows there. The second sample corrects its
    pre-activations by that step, so a NaN there would reach its Q-value."""
    net = QNetwork(
        layer1=DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2)),
        layer2=DenseLayer(np.array([[1.0, 1e300], [0, 0], [0, 0], [0, 0]]), np.zeros(4)),
    )
    before = copy.deepcopy(net.layer1)
    observations = np.array([[1.0, 0.0], [2.0, 0.0]])
    loss = train_step(net, observations, [0, 1], [-1e10, 5.0], 1.0)
    assert np.isfinite(loss)
    assert same_bits(net.layer1.weights[1], before.weights[1])  # [-1.0, +0.0]
    assert same_bits(net.layer1.biases[1], before.biases[1])  # +0.0


@pytest.mark.filterwarnings("error")
def test_forward_non_finite_raises():
    net = toy_network()
    net.layer2.weights[0, 0] = 1e308
    with pytest.raises(NumericalError):
        forward(net, np.array([1.0, 1.0]))


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


# --- layer-1 update: one step and a batch ------------------------------------


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
    """A one-row train_step must equal the dense update written out here,
    outer product and all, bit for bit, whatever the input, and return
    the squared residual at the starting parameters."""
    rng = np.random.default_rng(seed)
    net = random_small_network(rng, in_dim, hidden)
    x = observation_of(kind, rng, in_dim)
    w1, b1 = net.layer1.weights.copy(), net.layer1.biases.copy()
    w2, b2 = net.layer2.weights.copy(), net.layer2.biases.copy()

    # The dense reference, gradients computed here from the parameters.
    z1 = w1 @ x + b1
    h = np.maximum(z1, 0.0)
    residual = (w2[action] @ h + b2[action]) - target
    grad_q = 2.0 * residual
    grad_z1 = np.where(z1 > 0.0, grad_q * w2[action], 0.0)
    lr = learning_rate
    w2[action] -= lr * grad_q * h
    b2[action] -= lr * grad_q
    w1 -= np.outer(lr * grad_z1, x)
    b1 -= lr * grad_z1

    loss = train_step(net, x, action, target, learning_rate)
    assert same_bits(net.layer1.weights, w1)
    assert same_bits(net.layer1.biases, b1)
    assert same_bits(net.layer2.weights, w2)
    assert same_bits(net.layer2.biases, b2)
    assert same_bits(loss, float(residual * residual))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "sparse_real", "zeros", "dense"]),
    in_dim=st.integers(1, 12),
    hidden=st.integers(1, 8),
    k=st.integers(1, 16),
    learning_rate=st.sampled_from([0.05, 0.0002]),
)
def test_batched_train_step_matches_sequential_steps(
    seed, kind, in_dim, hidden, k, learning_rate
):
    """A k-row train_step equals k one-row steps, each target taken from
    forward + bellman_target at the parameters that step starts from, up
    to rounding: every parameter and the mean loss agree within
    1e-9 * (1 + |reference|)."""
    rng = np.random.default_rng(seed)
    batched = random_small_network(rng, in_dim, hidden)
    sequential = copy.deepcopy(batched)
    observations = np.array([observation_of(kind, rng, in_dim) for _ in range(k)])
    next_observations = np.array([observation_of(kind, rng, in_dim) for _ in range(k)])
    actions = rng.integers(0, 4, k)
    rewards = rng.normal(0, 30, k)
    terminal = rng.random(k) < 0.3

    def target(i, next_qvalues):
        return bellman_target(rewards[i], 0.83, next_qvalues, terminal[i])

    try:
        losses = [
            train_step(
                sequential, observations[i], actions[i],
                target(i, forward(sequential, next_observations[i])), learning_rate,
            )
            for i in range(k)
        ]
    except NumericalError:
        assume(False)
    loss = train_step(
        batched, observations, actions, target, learning_rate, next_observations
    )
    for got, want in [
        (batched.layer1.weights, sequential.layer1.weights),
        (batched.layer1.biases, sequential.layer1.biases),
        (batched.layer2.weights, sequential.layer2.weights),
        (batched.layer2.biases, sequential.layer2.biases),
        (loss, sum(losses) / k),
    ]:
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def replay_pass_inputs(seed, in_dim, k):
    """A k-sample replay pass on 0/1 observations, as the agent makes it."""
    rng = np.random.default_rng(seed)
    observations = rng.integers(0, 2, (k, in_dim)).astype(float)
    next_observations = rng.integers(0, 2, (k, in_dim)).astype(float)
    actions = rng.integers(0, 4, k)
    rewards = rng.normal(0, 30, k)

    def target(i, next_qvalues):
        return bellman_target(rewards[i], 0.83, next_qvalues, i == k - 1)

    return observations, actions, target, 0.0002, next_observations


@pytest.mark.parametrize("inputs", [75, 243])  # three planes of a 5x5, a 9x9 map
def test_warm_replay_pass_allocates_no_large_temporary(inputs):
    """Scratch arrays are kept per W1 shape: a second 16-sample pass
    allocates well under one (16, 1013) array. At 243 inputs a fresh
    (32, 243) concatenation alone would bring the peak close to that
    bound."""
    net = init_network(inputs, np.random.default_rng(3))
    batch = replay_pass_inputs(4, inputs, 16)
    train_step(net, *batch)
    tracemalloc.start()
    try:
        train_step(net, *batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_scratch_arrays_carry_nothing_between_passes():
    """A pass gives the same bits whatever ran before it: other batch
    sizes, a capacity change, a one-row call, another W1 shape."""
    net = init_network(12, np.random.default_rng(5))
    first, second = copy.deepcopy(net), copy.deepcopy(net)
    batch = replay_pass_inputs(6, 12, 5)
    loss_first = train_step(first, *batch)
    for seed, k in [(7, 3), (8, 16)]:
        other = init_network(12, np.random.default_rng(seed))
        train_step(other, *replay_pass_inputs(seed, 12, k))
    train_step(init_network(12, np.random.default_rng(9)), np.ones(12), 2, 40.0, 0.05)
    train_step(init_network(20, np.random.default_rng(10)), *replay_pass_inputs(10, 20, 5))
    loss_second = train_step(second, *batch)
    assert same_bits(loss_first, loss_second)
    for got, want in [
        (second.layer1.weights, first.layer1.weights),
        (second.layer1.biases, first.layer1.biases),
        (second.layer2.weights, first.layer2.weights),
        (second.layer2.biases, first.layer2.biases),
    ]:
        assert same_bits(got, want)


@pytest.mark.parametrize("inputs", [75, 243])
def test_preactivations_and_w1_step_share_one_buffer(inputs):
    """The pre-activations are dead once the per-sample loop ends, so the
    W1 step is written over them: a set holds the stacked inputs, the
    steps, and the larger of the two."""
    net = init_network(inputs, np.random.default_rng(3))
    train_step(net, *replay_pass_inputs(4, inputs, 16))
    scratch = densenet._scratch
    assert np.shares_memory(scratch.z, scratch.w1_step)
    arrays = scratch.vectors, scratch.steps, scratch.z, scratch.w1_step
    owners = {id(owner): owner for owner in (a if a.base is None else a.base for a in arrays)}
    assert sum(owner.nbytes for owner in owners.values()) == (
        scratch.vectors.nbytes + scratch.steps.nbytes
        + max(scratch.z.nbytes, scratch.w1_step.nbytes)
    )


def test_runs_on_every_bundled_map_leave_one_scratch_set():
    """The replay pass keeps one scratch set, for the last W1 shape it
    trained, not one for every shape the process has trained."""
    for map_id in BUNDLED_MAP_NOTES:
        spec = ExperimentSpec(
            map_id=map_id, grid=load_bundled_map(map_id), seeds=(1,),
            max_episodes=1, step_budget=40,
        )
        run_seed(spec, 1)
    kept = [obj for obj in gc.get_objects() if isinstance(obj, densenet._Scratch)]
    assert len(kept) == 1
    assert kept[0].w1_step.shape == (HIDDEN_UNITS, 141)  # block_9x9, the last map


def test_one_blas_thread_sets_and_restores_the_count():
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get_threads, _ = calls
    before = get_threads()
    with one_blas_thread():
        assert get_threads() == 1
    assert get_threads() == before


def test_openblas_lookup_finds_32_bit_index_names(tmp_path, monkeypatch):
    """An OpenBLAS built with 32-bit indices exports its functions without
    the 64_ suffix, as scipy_openblas_set_num_threads."""
    (tmp_path / "libscipy_openblas-stand-in.so").touch()

    class Function:
        """Stands in for a ctypes function pointer."""

    class Library:
        """Stands in for ctypes.CDLL of such a build."""

        def __init__(self, path):
            self.scipy_openblas_get_num_threads = Function()
            self.scipy_openblas_set_num_threads = Function()

    monkeypatch.setattr(densenet, "_NUMPY_LIBS", tmp_path)
    monkeypatch.setattr(ctypes, "CDLL", Library)
    calls = _openblas_thread_calls.__wrapped__()
    assert calls is not None
    get_threads, set_threads = calls
    assert get_threads.restype is ctypes.c_int
    assert set_threads.argtypes == [ctypes.c_int]


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

