"""
Verifying backpropagation with finite differences
=================================================

One SGD step with learning rate 1.0 moves every parameter by exactly its
gradient, so (before - after) recovers what backprop computed.  Comparing
that against central finite differences of the squared-error loss on a
random sample of coordinates certifies the hand-written update rule.
"""

import numpy as np

from swarmcover import forward, init_network, train_step

rng = np.random.default_rng(0)
net = init_network(12, rng)  # the three-plane image of a 2x2 map

observation = rng.normal(0.0, 1.0, 3 * 2 * 2)
action = 2
target = 1.5

print("Q before:", np.round(forward(net, observation), 4))


def loss_at(params):
    hidden = np.maximum(params["W1"] @ observation + params["b1"], 0.0)
    q = params["W2"] @ hidden + params["b2"]
    return float((q[action] - target) ** 2)


# Snapshot, take one full-strength step, and read the gradients off the
# parameter deltas.
before = {
    "W1": net.layer1.weights.copy(),
    "b1": net.layer1.biases.copy(),
    "W2": net.layer2.weights.copy(),
    "b2": net.layer2.biases.copy(),
}
# Learning rate 1.0 overshoots wildly and is useless for training, but
# here only the parameter delta matters.
loss = train_step(net, observation, action, target, learning_rate=1.0)
analytic = {
    "W1": before["W1"] - net.layer1.weights,
    "b1": before["b1"] - net.layer1.biases,
    "W2": before["W2"] - net.layer2.weights,
    "b2": before["b2"] - net.layer2.biases,
}
# train_step returns the loss it descended, at the parameters it started
# from; the loss after the step is evaluated here on the updated ones.
after = {
    "W1": net.layer1.weights,
    "b1": net.layer1.biases,
    "W2": net.layer2.weights,
    "b2": net.layer2.biases,
}
print(f"loss before the full-strength step: {loss:.4f}")
print(f"loss after the full-strength step:  {loss_at(after):.1f}")


# Central differences over 200 randomly chosen coordinates per tensor
# (the full Jacobian would take minutes; a random probe is just as damning).
eps = 1e-5
for name, grad in analytic.items():
    flat = grad.reshape(-1)
    picks = rng.choice(flat.size, size=min(200, flat.size), replace=False)
    worst = 0.0
    for k in picks:
        bumped = {key: val.copy() for key, val in before.items()}
        bumped[name].reshape(-1)[k] += eps
        up = loss_at(bumped)
        bumped[name].reshape(-1)[k] -= 2 * eps
        down = loss_at(bumped)
        numeric = (up - down) / (2 * eps)
        scale = max(abs(flat[k]), abs(numeric), 1e-8)
        worst = max(worst, abs(flat[k] - numeric) / scale)
    status = "ok" if worst < 1e-4 else "MISMATCH"
    print(f"{name}: max relative error {worst:.3e}  [{status}]")
