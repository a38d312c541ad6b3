"""Dense-network training with a cellular-automaton dropout mask.

The mask is a binary lattice over the hidden units that evolves by
Conway's Game of Life rules once per epoch, with stagnation-triggered
reactivation of dead cells; classical, Gaussian, and alpha dropout are
provided as fixed baselines.
"""

from lifedrop.data import Dataset, load_cifar10, make_blobs
from lifedrop.harness import (ARCH_PRESETS, BlobSpec, ConfigError, EpochMetrics, RunConfig, compare,
                              evaluate, run)
from lifedrop.lattice import init_random, reactivate, step, write_pbm
from lifedrop.nn import backward, cross_entropy, forward, init_network, sgd_step, softmax
from lifedrop.regularizers import OverfitMonitor, RegularizerConfig, monitor_update, on_epoch_end_dynamic
from lifedrop.seeding import derive_seed

__all__ = [
    "ARCH_PRESETS", "BlobSpec", "ConfigError", "Dataset", "EpochMetrics", "OverfitMonitor",
    "RegularizerConfig", "RunConfig", "backward", "compare", "cross_entropy", "derive_seed", "evaluate",
    "forward", "init_network", "init_random", "load_cifar10", "make_blobs", "monitor_update",
    "on_epoch_end_dynamic", "reactivate", "run", "sgd_step", "softmax", "step", "write_pbm",
]

__version__ = "0.1.0"
