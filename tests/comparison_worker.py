"""One run of the acceptance training comparison, for a spawned worker process.

test_acceptance.py's training_comparison fixture submits `train` for
each of its fifteen configurations to a pool of spawned worker processes.
Spawn imports this module by name in each fresh worker, so the BLAS
thread count is pinned to 1 before numpy loads, as in tests/refruns.py:
the thread count moves the last bits of a matmul and from there a whole
trajectory, and one thread makes the printed acceptance values the same
on every machine. pytest does not collect this file.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")  # before numpy loads BLAS

import time

from lifedrop.data import Dataset, load_cifar10
from lifedrop.harness import RegularizerConfig, RunConfig, run

SUBSET_TRAIN = 5_000
SUBSET_VAL = 2_000


def subsets(corpus_dir):
    """5,000-image train subset and 2,000-image validation subset.

    The rows are copied out of the loaded record buffers, so the full
    corpus is freed before training starts.
    """
    train_full, val_full = load_cifar10(corpus_dir)
    return (Dataset(train_full.features[:SUBSET_TRAIN].copy(), train_full.labels[:SUBSET_TRAIN].copy(),
                    name="train-5k", class_count=train_full.class_count),
            Dataset(val_full.features[:SUBSET_VAL].copy(), val_full.labels[:SUBSET_VAL].copy(),
                    name="val-2k", class_count=val_full.class_count))


def train(corpus_dir, output_dir, arch, batch_size, learning_rate, kind, seed, epochs):
    """(EpochMetrics list, seconds of training) for one configuration; the data load is not timed."""
    data = subsets(corpus_dir)
    reg = RegularizerConfig(kind=kind, rate=0.5, lattice_density=0.5, reactivation_fraction=0.1, seed=seed)
    config = RunConfig(architecture=arch, regularizer=reg, output_dir=output_dir, epochs=epochs,
                       batch_size=batch_size, learning_rate=learning_rate, seed=seed, snapshot_epochs=())
    started = time.perf_counter()
    history = run(config, data=data)
    return history, time.perf_counter() - started
