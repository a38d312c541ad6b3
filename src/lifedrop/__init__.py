"""Dense-network training with a cellular-automaton dropout mask.

The mask is a binary lattice over the hidden units that evolves by
Conway's Game of Life rules once per epoch, with stagnation-triggered
reactivation of dead cells; classical, Gaussian, and alpha dropout are
provided as fixed baselines.
"""

from lifedrop.data import Dataset, load_cifar10
from lifedrop.harness import BlobSpec, EpochMetrics, RegularizerConfig, RunConfig, compare, run

__all__ = [
    "BlobSpec", "Dataset", "EpochMetrics", "RegularizerConfig", "RunConfig", "compare", "load_cifar10", "run",
]

__version__ = "0.1.0"
