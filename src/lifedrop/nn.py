"""Dense feed-forward engine.

Float64 throughout. Layers compute z = a_prev @ W.T + b with W shaped
(fan_out, fan_in); every hidden layer may map its pre-activations through
an elementwise (gain, offset) pair before ReLU, which is how all the
dropout variants act (a dropped unit has gain 0). The output layer
applies softmax and is never regularized. Gradients are hand-written
reverse mode; sgd_step returns a new Network, leaving the old value
intact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"LDNN1"
_LOG_CLAMP = 1e-12  # floor applied to probabilities before log()


@dataclass(frozen=True)
class DenseLayer:
    weights: np.ndarray  # (fan_out, fan_in)
    bias: np.ndarray  # (fan_out,)

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Network:
    layers: tuple[DenseLayer, ...]
    input_dim: int
    class_count: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        fan_in = self.input_dim
        for idx, layer in enumerate(self.layers):
            if layer.fan_in != fan_in:
                raise ValueError(f"layer {idx} expects fan_in {layer.fan_in}, previous width is {fan_in}")
            fan_in = layer.fan_out
        if self.layers[-1].fan_out != self.class_count:
            raise ValueError("final layer width must equal class_count")

    @property
    def hidden_layers(self) -> tuple[DenseLayer, ...]:
        return self.layers[:-1]


@dataclass(frozen=True)
class ForwardTrace:
    """Every intermediate of one forward pass, kept for the backward pass.

    z, z_tilde and activations have one entry per layer (the final
    activation is the softmax output). gains has one entry per hidden
    layer: the multiplicative factor applied to its pre-activations (None
    means identity; a 0 marks a dropped unit).
    """

    inputs: np.ndarray
    z: tuple[np.ndarray, ...]
    z_tilde: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]
    gains: tuple[np.ndarray | None, ...]


def init_network(arch: list[int], input_dim: int, class_count: int, seed: int) -> Network:
    """He-initialized stack: weights ~ Normal(0, 2/fan_in), biases zero."""
    if not arch:
        raise ValueError("architecture needs at least one hidden layer")
    if any(int(w) < 1 for w in arch):
        raise ValueError(f"layer widths must be positive, got {list(arch)}")
    if input_dim < 1 or class_count < 1:
        raise ValueError("input_dim and class_count must be positive")
    rng = np.random.default_rng(seed)
    dims = [int(input_dim), *(int(w) for w in arch), int(class_count)]
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        weights = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        layers.append(DenseLayer(weights, np.zeros(fan_out)))
    return Network(tuple(layers), input_dim=dims[0], class_count=dims[-1])


def dense_forward(layer: DenseLayer, a_prev: np.ndarray) -> np.ndarray:
    """z = a_prev @ W.T + b for a batch of row vectors."""
    a_prev = np.asarray(a_prev, dtype=np.float64)
    if a_prev.ndim != 2 or a_prev.shape[1] != layer.fan_in:
        raise ValueError(f"expected input of shape (batch, {layer.fan_in}), got {a_prev.shape}")
    return a_prev @ layer.weights.T + layer.bias


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(z, dtype=np.float64), 0.0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction so large logits cannot overflow."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"softmax expects a 2-D batch, got shape {z.shape}")
    if np.isnan(z).any():
        raise ValueError("softmax input contains NaN")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(y_true: np.ndarray, y_prob: np.ndarray) -> float:
    """Mean over the batch of -sum(y * log(p)), probabilities floored at 1e-12."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_prob = np.asarray(y_prob, dtype=np.float64)
    if y_true.shape != y_prob.shape or y_true.ndim != 2:
        raise ValueError(f"shape mismatch: labels {y_true.shape} vs probabilities {y_prob.shape}")
    p = np.maximum(y_prob, _LOG_CLAMP)
    return float(np.mean(-(y_true * np.log(p)).sum(axis=1)))


def forward(network: Network, batch: np.ndarray, scales=None):
    """Run the network on a batch, returning (probabilities, trace).

    scales: optional list with one (gain, offset) pair per hidden layer,
    applied elementwise to that layer's pre-activations before ReLU as
    z * gain + offset; an offset of None means no shift. Each entry
    broadcasts against (batch, width): the dynamic mask passes one
    (1 - mask) row per epoch, the noise baselines a fresh (batch, width)
    draw per batch. The output layer is never scaled.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != network.input_dim:
        raise ValueError(f"expected batch of shape (n, {network.input_dim}), got {x.shape}")
    n_hidden = len(network.layers) - 1
    if scales is not None:
        scales = list(scales)
        if len(scales) == len(network.layers):
            raise ValueError(f"scales covers the output layer, which is never scaled; "
                             f"provide {n_hidden} entries, one per hidden layer")
        if len(scales) != n_hidden:
            raise ValueError(f"scales has {len(scales)} entries, expected {n_hidden} (one per hidden layer)")

    a = x
    zs, zts, acts, gains = [], [], [], []
    for l, layer in enumerate(network.layers):
        z = dense_forward(layer, a)
        if l < n_hidden:
            gain = None
            zt = z
            if scales is not None and scales[l] is not None:
                gain, offset = scales[l]
                gain = np.asarray(gain, dtype=np.float64)
                if gain.ndim and gain.shape[-1] != layer.fan_out:
                    raise ValueError(f"gain for layer {l} has width {gain.shape[-1]}, expected {layer.fan_out}")
                zt = z * gain if offset is None else z * gain + offset
            a = relu(zt)
            gains.append(gain)
        else:
            zt = z
            a = softmax(z)
        zs.append(z)
        zts.append(zt)
        acts.append(a)
    trace = ForwardTrace(inputs=x, z=tuple(zs), z_tilde=tuple(zts), activations=tuple(acts),
                         gains=tuple(gains))
    return acts[-1], trace


def backward(network: Network, trace: ForwardTrace, y_true: np.ndarray):
    """Gradients of mean cross-entropy w.r.t. every weight and bias.

    Returns [(dW, db), ...] ordered like network.layers. Gains recorded
    in the trace are constants of the pass: a unit with gain 0 propagates
    zero gradient through its pre-activation.
    """
    y = np.asarray(y_true, dtype=np.float64)
    if len(trace.z) != len(network.layers) or trace.inputs.shape[1] != network.input_dim:
        raise ValueError("trace does not match this network")
    for l, layer in enumerate(network.layers):
        if trace.z[l].shape[1] != layer.fan_out:
            raise ValueError("trace does not match this network")
    probs = trace.activations[-1]
    if y.shape != probs.shape:
        raise ValueError(f"labels of shape {y.shape} do not match probabilities {probs.shape}")

    batch = y.shape[0]
    dz = (probs - y) / batch  # softmax + cross-entropy shortcut
    grads: list = [None] * len(network.layers)
    for l in range(len(network.layers) - 1, -1, -1):
        a_prev = trace.inputs if l == 0 else trace.activations[l - 1]
        grads[l] = (dz.T @ a_prev, dz.sum(axis=0))
        if l > 0:
            da = dz @ network.layers[l].weights
            dzt = da * (trace.z_tilde[l - 1] > 0)
            gain = trace.gains[l - 1]
            dz = dzt if gain is None else dzt * gain
    return grads


def sgd_step(network: Network, gradients, learning_rate: float) -> Network:
    """One plain SGD update; returns the updated network as a new value."""
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be positive, got {learning_rate}")
    if len(gradients) != len(network.layers):
        raise ValueError("gradient list does not match network layers")
    layers = []
    for layer, (dw, db) in zip(network.layers, gradients):
        if dw.shape != layer.weights.shape or db.shape != layer.bias.shape:
            raise ValueError("gradient shapes do not match network layers")
        layers.append(DenseLayer(layer.weights - learning_rate * dw, layer.bias - learning_rate * db))
    return Network(tuple(layers), network.input_dim, network.class_count)


def save_checkpoint(network: Network, path) -> None:
    """Flat little-endian dump: `LDNN1`, then per layer fan_in/fan_out (u32),
    row-major f64 weights, f64 biases."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for layer in network.layers:
            fh.write(struct.pack("<II", layer.fan_in, layer.fan_out))
            fh.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def load_checkpoint(path) -> Network:
    """Inverse of save_checkpoint; round-trips bitwise."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    raw_layers = []
    while offset < len(blob):
        if offset + 8 > len(blob):
            raise ValueError(f"{path}: truncated layer header at offset {offset}")
        fan_in, fan_out = struct.unpack_from("<II", blob, offset)
        offset += 8
        need = 8 * fan_in * fan_out + 8 * fan_out
        if offset + need > len(blob):
            raise ValueError(f"{path}: truncated layer data at offset {offset}")
        weights = np.frombuffer(blob, dtype="<f8", count=fan_in * fan_out, offset=offset)
        weights = weights.reshape(fan_out, fan_in).copy()
        offset += 8 * fan_in * fan_out
        bias = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset).copy()
        offset += 8 * fan_out
        raw_layers.append((weights, bias))
    if not raw_layers:
        raise ValueError(f"{path}: checkpoint holds no layers")
    layers = tuple(DenseLayer(w, b) for w, b in raw_layers)
    return Network(layers, input_dim=layers[0].fan_in, class_count=layers[-1].fan_out)
