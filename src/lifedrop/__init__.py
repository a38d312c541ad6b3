"""Dense-network training with a cellular-automaton dropout mask.

The mask is a binary lattice over the hidden units that evolves by
Conway's Game of Life rules once per epoch, with stagnation-triggered
reactivation of dead cells; classical, Gaussian, and alpha dropout are
provided as fixed baselines.
"""

from lifedrop.data import BlobSpec, Dataset, load_cifar10, make_blobs
from lifedrop.harness import ARCH_PRESETS, EpochMetrics, RunConfig, compare, run
from lifedrop.regularizers import RegularizerConfig

__all__ = [
    "ARCH_PRESETS", "BlobSpec", "Dataset", "EpochMetrics", "RegularizerConfig", "RunConfig", "compare",
    "load_cifar10", "make_blobs", "run",
]

__version__ = "0.1.0"
