"""The four dropout strategies behind one config, plus the stagnation monitor.

Classical, Gaussian and alpha dropout each draw fresh per-batch noise as
the (gain, offset) pair that nn.forward applies to the pre-activations.
They seed nothing: each draws from the Generator it is handed, which
harness._batch_scales keys once per batch. The dynamic variant drops
the units that are alive on the Game-of-Life lattice, which advances
one generation per epoch; harness.run trains each epoch without them,
the same as a gain of 1 - mask on those pre-activations. So the
comparison between strategies is site-controlled; evaluation applies
none of them. The draws trust their rate to lie in [0, 1), the range
RegularizerConfig enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from lifedrop.lattice import reactivate, step
from lifedrop.seeding import derive_seed

KINDS = ("none", "classical", "gaussian", "alpha", "dynamic")

# Negative saturation value for alpha dropout: dropped units are pinned here
# instead of zero so an affine correction can restore mean 0 / variance 1.
ALPHA_PRIME = -1.7580993408473766


@dataclass(frozen=True)
class RegularizerConfig:
    kind: str
    rate: float = 0.5
    lattice_density: float = 0.5
    reactivation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must lie in [0, 1), got {self.rate}")
        if not 0.0 <= self.lattice_density <= 1.0:
            raise ValueError(f"lattice_density must lie in [0, 1], got {self.lattice_density}")
        if not 0.0 < self.reactivation_fraction <= 1.0:
            raise ValueError(f"reactivation_fraction must lie in (0, 1], got {self.reactivation_fraction}")


@dataclass(frozen=True)
class OverfitMonitor:
    """Patience counter over validation loss; fires when progress stalls."""

    patience: int = 5
    min_delta: float = 1e-3
    best_val_loss: float = math.inf
    epochs_since_improvement: int = 0

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if not 0 <= self.min_delta < math.inf:  # also false for NaN
            raise ValueError(f"min_delta must be finite and non-negative, got {self.min_delta}")


def monitor_update(monitor: OverfitMonitor, val_loss: float) -> tuple[OverfitMonitor, bool]:
    """Feed one validation loss.

    Improvement by more than min_delta resets the counter; otherwise it
    grows, and reaching patience triggers (and re-arms the counter).
    The loss is finite: harness.run stops a diverged run before its hook.
    """
    if val_loss < monitor.best_val_loss - monitor.min_delta:
        return replace(monitor, best_val_loss=val_loss, epochs_since_improvement=0), False
    stalled = monitor.epochs_since_improvement + 1
    if stalled >= monitor.patience:
        return replace(monitor, epochs_since_improvement=0), True
    return replace(monitor, epochs_since_improvement=stalled), False


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


def on_epoch_end_dynamic(board: np.ndarray, generation: int, monitor: OverfitMonitor, val_loss: float,
                         config: RegularizerConfig):
    """End-of-epoch hook for the dynamic regularizer, given the board and its generation number.

    Order is fixed: update the monitor; if it fired, revive
    ceil(reactivation_fraction * dead_count) cells so the fresh cells take
    part in the next generation; then advance the board one step. The
    generation keys the reactivation seed; the caller's board is left
    unchanged.

    Returns (next_board, next_monitor, triggered, cells_revived).
    """
    next_monitor, triggered = monitor_update(monitor, val_loss)
    revived = 0
    if triggered:
        before = int(board.sum())
        quota = math.ceil(config.reactivation_fraction * (board.size - before))
        board = reactivate(board, quota, derive_seed(config.seed, "reactivate", generation))
        revived = int(board.sum()) - before
    return step(board), next_monitor, triggered, revived
