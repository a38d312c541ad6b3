"""Whole-loop oracle: a straight-line reference trainer against harness.run.

The reference writes its own dense forward, backward and SGD, summing in
another order than lifedrop.nn, and its own monitor and evaluation. It
reuses only parts with oracles of their own: lattice.step/reactivate, the
gain functions, derive_seed and batches, and keys every stream itself. So
it checks how run wires them: each epoch shuffles by its own seed, the
board is read before the epoch-end hook and fixed for the epoch, noise
comes from one generator per (epoch, batch) that the layers draw from in
order, evaluation is unmasked, and the hook runs monitor -> reactivate ->
step with a revival seed keyed on the board's generation.
"""

import math

import numpy as np
import pytest

from lifedrop.data import batches, make_blobs
from lifedrop.harness import RegularizerConfig, RunConfig, derive_seed, run
from lifedrop.lattice import reactivate, step
from lifedrop.regularizers import alpha_affine, classical_gain, gaussian_gain

WIDTHS = (6, 6, 6)
EPOCHS = 4


def _reference(config, train, val):
    """Per-epoch (train_loss, val_loss, train_acc, val_acc, live_frac, revived) and the boards."""
    reg, seed = config.regularizer, config.seed
    rng = np.random.default_rng(derive_seed(seed, "init"))
    dims = [train.features.shape[1], *WIDTHS, train.class_count]
    params = [[rng.normal(0.0, math.sqrt(2.0 / i), size=(o, i)), np.zeros(o)] for i, o in zip(dims, dims[1:])]
    board = (np.random.default_rng(derive_seed(seed, "lattice")).random((len(WIDTHS), WIDTHS[0]))
             < reg.lattice_density).astype(np.uint8)
    best, stalled = math.inf, 0

    def forward(x, scales):
        acts = [x]
        for l, (w, b) in enumerate(params):
            z = (w @ acts[-1].T).T + b
            if l < len(WIDTHS):
                gain, offset = scales[l]
                acts.append(np.maximum(z * gain + offset, 0.0))
            else:
                e = np.exp(z - z.max(axis=1, keepdims=True))
                acts.append(e / e.sum(axis=1, keepdims=True))
        return acts

    def measure(data):
        probs = forward(data.features, [(1.0, 0.0)] * len(WIDTHS))[-1]
        true = probs[np.arange(data.n), data.labels]
        return -np.log(np.maximum(true, 1e-12)).sum() / data.n, np.mean(probs.argmax(axis=1) == data.labels)

    history, boards = [], []
    for epoch in range(1, config.epochs + 1):
        boards.append(board)
        shuffle = derive_seed(derive_seed(seed, "batches"), "shuffle", epoch)  # a fresh order per epoch
        for batch_i, (x, labels) in enumerate(batches(train, config.batch_size, shuffle)):
            scales = []
            noise = np.random.default_rng(derive_seed(reg.seed, "noise", epoch, batch_i))  # the layers draw in order
            for l, width in enumerate(WIDTHS):
                shape = (x.shape[0], width)
                if reg.kind == "classical":
                    scales.append((classical_gain(shape, reg.rate, noise)[0], 0.0))
                elif reg.kind == "gaussian":
                    scales.append((gaussian_gain(shape, reg.rate, noise)[0], 0.0))
                elif reg.kind == "alpha":
                    scales.append(alpha_affine(shape, reg.rate, noise))
                else:  # the board as it stood when the epoch began; all ones without one
                    scales.append((1.0 - board[l] if reg.kind == "dynamic" else 1.0, 0.0))
            acts = forward(x, scales)
            delta = (acts[-1] - np.eye(train.class_count)[labels]) / x.shape[0]
            for l in range(len(params) - 1, -1, -1):
                w = params[l][0]
                grad_w, grad_b = (acts[l].T @ delta).T, np.ones(x.shape[0]) @ delta
                if l:
                    delta = (w.T @ delta.T).T * (acts[l] > 0) * scales[l - 1][0]
                params[l] = [w - config.learning_rate * grad_w, params[l][1] - config.learning_rate * grad_b]
        (train_loss, train_acc), (val_loss, val_acc) = measure(train), measure(val)
        revived = 0
        if reg.kind == "dynamic":
            if val_loss < best - config.min_delta:
                best, stalled = val_loss, 0
            else:
                stalled += 1
            if stalled >= config.patience:
                stalled = 0
                dead = board.size - int(board.sum())
                revived_board = reactivate(board, math.ceil(reg.reactivation_fraction * dead),
                                           derive_seed(reg.seed, "reactivate", epoch - 1))
                revived = int(revived_board.sum()) - int(board.sum())
                board = revived_board
            board = step(board)
        live = int(boards[-1].sum()) / boards[-1].size if reg.kind == "dynamic" else 0.0
        history.append((train_loss, val_loss, train_acc, val_acc, live, revived))
    return history, boards


# The dynamic run also starts from an extinct board (nothing dropped) and
# from a saturated one (every hidden layer dropped whole in epoch 1).
@pytest.mark.parametrize("kind, density", [("none", 0.5), ("classical", 0.5), ("gaussian", 0.5), ("alpha", 0.5),
                                           ("dynamic", 0.5), ("dynamic", 0.0), ("dynamic", 1.0)],
                         ids=["none", "classical", "gaussian", "alpha", "dynamic", "dynamic-extinct",
                              "dynamic-saturated"])
def test_run_matches_reference_trainer(tmp_path, kind, density):
    train = make_blobs(40, 3, 8, 3.0, seed=11)
    val = make_blobs(15, 3, 8, 3.0, seed=12)
    reg = RegularizerConfig(kind=kind, rate=0.3, lattice_density=density, reactivation_fraction=0.5, seed=4)
    config = RunConfig(architecture=WIDTHS, regularizer=reg, output_dir=tmp_path, epochs=EPOCHS,
                       batch_size=16, learning_rate=0.05, seed=7, snapshot_epochs=(1, 3), patience=1,
                       min_delta=0.2)
    got = run(config, data=(train, val))
    expected, boards = _reference(config, train, val)
    assert [m.epoch for m in got] == list(range(1, EPOCHS + 1))
    for m, (train_loss, val_loss, train_acc, val_acc, live, revived) in zip(got, expected):
        for actual, want in ((m.train_loss, train_loss), (m.val_loss, val_loss), (m.train_acc, train_acc),
                             (m.val_acc, val_acc), (m.gap, train_acc - val_acc),
                             (m.live_mask_fraction, live)):
            assert math.isclose(actual, want, rel_tol=1e-9, abs_tol=1e-12), (m, actual, want)
        assert m.reactivated_cells == revived
    if kind == "dynamic":
        assert sum(m.reactivated_cells for m in got) > 0, "no reactivation fired; the hook order is unchecked"
        for epoch in config.snapshot_epochs:
            rows = [" ".join(map(str, row)) for row in boards[epoch - 1]]
            text = "\n".join(["P1", f"{WIDTHS[0]} {len(WIDTHS)}", *rows]) + "\n"
            assert (tmp_path / f"lattice_epoch_{epoch}.pbm").read_text() == text
