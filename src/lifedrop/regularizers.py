"""The dropout draws and the board's epoch-end hook; harness holds their settings.

Classical, Gaussian and alpha dropout each draw fresh per-batch noise as
the (gain, offset) pair that nn.forward applies to the pre-activations.
The dynamic variant drops the units that are alive on the Game-of-Life
lattice, which advances one generation per epoch; harness.run trains
each epoch without them, the same as a gain of 1 - mask on those
pre-activations. So the comparison between strategies is
site-controlled; evaluation applies none of them. The hook carries the
patience monitor as the pair (best validation loss, epochs since it
improved). Nothing here defines or checks a setting, and nothing derives
a seed: harness keys the Generator each draw is handed, once per batch,
and the seed of the epoch-end hook's revival draw. The draws trust their
rate to lie in [0, 1), the range harness.RegularizerConfig enforces.
"""

from __future__ import annotations

import math

import numpy as np

from lifedrop.lattice import reactivate, step

# Negative saturation value for alpha dropout: dropped units are pinned here
# instead of zero so an affine correction can restore mean 0 / variance 1.
ALPHA_PRIME = -1.7580993408473766


def classical_gain(shape, rate: float, rng: np.random.Generator) -> tuple[np.ndarray, None]:
    """(gain, None): a gain of 0 with probability rate, else 1/(1-rate); one uniform draw from rng."""
    return (rng.random(shape) >= rate) / (1.0 - rate), None


def gaussian_gain(shape, rate: float, rng: np.random.Generator) -> tuple[np.ndarray, None]:
    """(gain, None) with the gain ~ Normal(1, rate/(1-rate)); one normal draw from rng."""
    return rng.normal(1.0, math.sqrt(rate / (1.0 - rate)), size=shape), None


def alpha_affine(shape, rate: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(gain, offset) such that gain*x + offset is alpha dropout; one uniform draw from rng.

    Units are kept with probability p = 1-rate or pinned to ALPHA_PRIME,
    then affine-corrected with a = (p + ALPHA_PRIME^2 * p * (1-p))^-0.5 and
    b = -a * (1-p) * ALPHA_PRIME, which preserves zero mean and unit
    variance of standard-normal input. A kept unit's offset is
    b + (±0.0), which is exactly b.
    """
    p = 1.0 - rate
    a = (p + ALPHA_PRIME**2 * p * (1.0 - p)) ** -0.5
    b = -a * (1.0 - p) * ALPHA_PRIME
    keep = rng.random(shape) < p
    return a * keep, b + (a * ALPHA_PRIME) * ~keep


def on_epoch_end_dynamic(board: np.ndarray, seed: int, monitor: tuple[float, int], val_loss: float, config):
    """End-of-epoch hook for the dynamic regularizer, given the board and the seed of its revival draw.

    `monitor` is (best validation loss, epochs since it improved), and
    `config` the run's RunConfig. A loss below best - min_delta improves;
    any other stalls, and `patience` stalls fire and reset the count. If
    it fired, revive ceil(reactivation_fraction * dead_count) cells, drawn
    from `seed` (harness.run keys it on the board's generation), so they
    take part in the next generation; then advance the board one step.
    The caller's board is left unchanged.

    Returns (next_board, next_monitor, triggered, cells_revived).
    """
    best, stalls = monitor
    if val_loss < best - config.min_delta:
        best, stalls = val_loss, 0
    else:
        stalls += 1
    triggered = stalls >= config.patience
    revived = 0
    if triggered:
        stalls = 0
        before = int(board.sum())
        quota = math.ceil(config.regularizer.reactivation_fraction * (board.size - before))
        board = reactivate(board, quota, seed)
        revived = int(board.sum()) - before
    return step(board), (best, stalls), triggered, revived
