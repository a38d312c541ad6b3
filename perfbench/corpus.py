"""Seeded image corpus in the CIFAR-10 binary layout.

Each record is 1 label byte followed by 3072 pixel bytes (three 1024-byte
channel planes). Images are class prototypes (smooth random fields drawn
from the seed) plus per-pixel noise and a per-image brightness shift, and
a share of records take their image from another class's prototypes while
keeping their own label, so small training subsets overfit the way real
CIFAR-10 does. Everything is a pure function of the seed.

Records are made in chunks so that generation never holds more than a few
tens of MB; the benchmark's peak-RSS metric must reflect the program, not
the generator.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CLASSES = 10
PIXELS = 3072
RECORD_BYTES = 1 + PIXELS
RECORDS_PER_FILE = 10_000
TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"

PROTOS_PER_CLASS = 8
CONTRAST = 0.45  # prototype amplitude around mid-gray
NOISE = 0.35  # per-pixel Gaussian noise sigma
JITTER = 0.12  # per-image brightness shift bound
CONFUSED = 0.30  # share of records drawn from another class's prototypes
CHUNK = 2_000  # records generated at once
SUBSET_TRAIN = 5_000
SUBSET_VAL = 2_000


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    """(CLASSES, PROTOS_PER_CLASS, PIXELS) float32 images in [0.05, 0.95]."""
    low = rng.random((CLASSES * PROTOS_PER_CLASS, 3, 8, 8), dtype=np.float32) * 2.0 - 1.0
    up = np.kron(low, np.ones((1, 1, 4, 4), dtype=np.float32))
    for axis in (2, 3):  # box-smooth so prototypes are not blocky
        up = (np.roll(up, 1, axis=axis) + up + np.roll(up, -1, axis=axis)) / 3.0
    return (0.5 + CONTRAST * up).reshape(CLASSES, PROTOS_PER_CLASS, PIXELS)


def _records(rng: np.random.Generator, protos: np.ndarray, n: int) -> np.ndarray:
    """(n, RECORD_BYTES) uint8 records; n must be a multiple of CLASSES."""
    labels = np.repeat(np.arange(CLASSES), n // CLASSES)
    rng.shuffle(labels)
    out = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    out[:, 0] = labels
    for start in range(0, n, CHUNK):
        y = labels[start:start + CHUNK]
        m = y.shape[0]
        image_class = y.copy()
        confused = rng.random(m) < CONFUSED
        image_class[confused] = rng.integers(0, CLASSES, size=int(confused.sum()))
        img = protos[image_class, rng.integers(0, PROTOS_PER_CLASS, size=m)]
        img += (rng.random((m, 1), dtype=np.float32) * 2.0 - 1.0) * JITTER
        img += rng.standard_normal((m, PIXELS), dtype=np.float32) * NOISE
        np.clip(img, 0.0, 1.0, out=img)
        out[start:start + m, 1:] = np.round(img * 255.0)
    return out


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def subset(seed: int):
    """In-memory (train_x, train_y, val_x, val_y): float64 pixels in [0, 1], int64 labels."""
    proto_rng, train_rng, val_rng = _streams(seed, 3)
    protos = _prototypes(proto_rng)
    out = []
    for rng, n in ((train_rng, SUBSET_TRAIN), (val_rng, SUBSET_VAL)):
        rec = _records(rng, protos, n)
        out += [rec[:, 1:] / 255.0, rec[:, 0].astype(np.int64)]
    return tuple(out)


def write_cifar(directory, seed: int) -> list[Path]:
    """Write the five train files and the test file; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    proto_rng, *file_rngs = _streams(seed, 1 + len(TRAIN_FILES) + 1)
    protos = _prototypes(proto_rng)
    paths = []
    for name, rng in zip((*TRAIN_FILES, TEST_FILE), file_rngs):
        path = directory / name
        _records(rng, protos, RECORDS_PER_FILE).tofile(path)
        paths.append(path)
    return paths
