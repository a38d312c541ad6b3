"""Dense feed-forward engine.

Float64 throughout. A network is a list of (W, b) array pairs, W shaped
(fan_out, fan_in), and a layer computes z = a_prev @ W.T + b. The noise
dropouts map each hidden layer's pre-activations through an elementwise
(gain, offset) pair before ReLU; the dynamic board instead leaves its
dropped units out of the network for the epoch (a gain of 0). The output
layer applies softmax and is never regularized. Labels are integer
class indices. Gradients are hand-written reverse mode; sgd_step updates
the caller's arrays in place. Forward and backward write in place into
the arrays they allocate and never into the batch or a (gain, offset)
pair; sgd_step consumes the gradients it is given.
"""

from __future__ import annotations

import numpy as np

_LOG_CLAMP = 1e-12  # floor applied to probabilities before log()


def init_network(widths, input_dim: int, class_count: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """He-initialized [(W, b), ...]: weights ~ Normal(0, 2/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    dims = [int(input_dim), *(int(w) for w in widths), int(class_count)]
    return [(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)), np.zeros(fan_out))
            for fan_in, fan_out in zip(dims, dims[1:])]


def dense_forward(layer, a_prev: np.ndarray) -> np.ndarray:
    """z = a_prev @ W.T + b for a (W, b) pair and a batch of row vectors."""
    weights, bias = layer
    z = a_prev @ weights.T
    z += bias
    return z


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction so large logits cannot overflow. A NaN or
    infinite logit gives NaN, which harness.run's divergence check finds in the loss."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(true_probs: np.ndarray) -> float:
    """Mean of -log(p) over each row's probability of its true class, floored at 1e-12."""
    return float(np.mean(-np.log(np.maximum(true_probs, _LOG_CLAMP))))


def forward(network, batch: np.ndarray, scales=None):
    """Run the network on a batch, returning (probabilities, trace).

    scales: None, or one (gain, offset) pair per hidden layer as a noise
    draw in regularizers returns it, applied elementwise to that layer's
    pre-activations before ReLU as z * gain + offset (an offset of None
    is no shift); each pair broadcasts against (batch, width). The
    dynamic board passes no scales: harness.run gives forward a network
    without the units it drops. The output layer is never scaled.

    The trace is what backward reads, (activations, gains): activations
    holds the batch, every hidden layer's ReLU output and the
    probabilities; gains holds each hidden layer's gain (None without scales).
    """
    x = np.asarray(batch, dtype=np.float64)
    input_dim = network[0][0].shape[1]
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ValueError(f"expected batch of shape (n, {input_dim}), got {x.shape}")

    activations, gains = [x], []
    for l, layer in enumerate(network[:-1]):
        z = dense_forward(layer, activations[-1])
        gain = None
        if scales is not None:
            gain, offset = scales[l]
            z *= gain
            if offset is not None:
                z += offset
        activations.append(np.maximum(z, 0.0, out=z))  # ReLU
        gains.append(gain)
    activations.append(softmax(dense_forward(network[-1], activations[-1])))
    return activations[-1], (activations, gains)


def backward(network, trace, labels: np.ndarray):
    """Gradients of mean cross-entropy w.r.t. every weight and bias.

    labels holds each row's class index, shape (n,). Returns
    [(dW, db), ...] ordered like network. Gains recorded in the trace are
    constants of the pass: a unit with gain 0 propagates zero gradient
    through its pre-activation.
    """
    activations, gains = trace
    n = labels.shape[0]
    dz = activations[-1].copy()  # softmax + cross-entropy shortcut: (probs - one-hot labels) / n
    dz[np.arange(n), labels] -= 1.0
    dz /= n
    grads: list = [None] * len(network)
    for l in range(len(network) - 1, -1, -1):
        grads[l] = (dz.T @ activations[l], dz.sum(axis=0))
        if l > 0:
            # relu(z) > 0 exactly where z > 0, so the output stands in for z
            dz = dz @ network[l][0]
            dz *= activations[l] > 0
            if gains[l - 1] is not None:
                dz *= gains[l - 1]
    return grads


def sgd_step(network, gradients, learning_rate: float) -> None:
    """One plain SGD update, written into the network's arrays.

    Consumes its gradients: each (dW, db) is scaled by learning_rate in
    place and then subtracted, bitwise equal to W -= learning_rate * dW.
    """
    for (weights, bias), (dw, db) in zip(network, gradients):
        dw *= learning_rate
        weights -= dw
        db *= learning_rate
        bias -= db
