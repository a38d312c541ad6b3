"""Dataset ingestion, synthetic blobs and batching, and the value rule every setting meets.

Reads the canonical CIFAR-10 binary distribution (six files of 10,000
records; each record is 1 label byte followed by 3072 pixel bytes laid
out as three 1024-byte channel planes, row-major). Each split's files
are read straight into one (records, 3073) uint8 buffer, and the split's
features are the pixel columns of that buffer, a strided view of the raw
bytes. `Dataset.rows` scales each batch or evaluation chunk into [0, 1]
by dividing by 255 as it is read, so only compute is float64. No other
preprocessing. Synthetic Gaussian blobs (make_blobs, which trusts what
harness.BlobSpec checks) stand in for fast, offline tests. make_blobs and
batches draw from the seed they are given, and harness derives every seed.
_plain checks each field of a Dataset or config against its annotation.
"""

import contextlib
import numbers
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

RECORD_BYTES = 3073
RECORDS_PER_FILE = 10_000
FILE_BYTES = RECORD_BYTES * RECORDS_PER_FILE  # 30,730,000
TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"
CIFAR_CLASSES = 10


# per annotation: the types a value may be (numpy scalars are, a bool never is), its error's noun, and how it is stored
_PATH = ((str, os.PathLike), "a path", lambda v: str(os.fspath(v)))
_RULES = {int: (numbers.Integral, "an integer", int), float: (numbers.Real, "a real number", float),
          str: (str, "a string", str), str | Path: _PATH, str | Path | None: _PATH}


def _plain(name, kind, value):
    """Check a setting's value against the rule for its annotation `kind`, and return the plain value to store."""
    if kind == tuple[int, ...]:  # a tuple or list whose items pass the int rule
        if isinstance(value, (tuple, list)):
            with contextlib.suppress(ValueError):
                return tuple(_plain(name, int, v) for v in value)
        raise ValueError(f"{name} must be integers, got {value!r}")
    if value is None and kind == str | Path | None:  # an optional path left unset
        return None
    accepted, noun, store = _RULES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return store(value)


def _store_plain(config) -> None:
    """Store each field of a frozen dataclass whose real annotation, f.type, has a rule as _plain returns it."""
    for f in fields(config):
        if f.type in (*_RULES, tuple[int, ...]):
            object.__setattr__(config, f.name, _plain(f.name, f.type, getattr(config, f.name)))


@dataclass(frozen=True)
class Dataset:
    """Labelled feature rows.

    uint8 features are kept as they are, also as a strided view such
    as the pixel columns of load_cifar10's record buffer, and mean
    byte / 255: the CIFAR-10 train and validation splits hold about
    176 MiB of bytes rather than 1.4 GiB of float64. Any other dtype is
    coerced to float64, without a copy when it already is float64. Read
    features through `rows`, which returns float64. Labels must have an
    integer dtype (not bool) and are stored as int64; name and class_count meet _plain's rule.
    """

    features: np.ndarray  # (n, dim) uint8 bytes or float64; read through rows()
    labels: np.ndarray  # (n,) int64
    name: str
    class_count: int

    def __post_init__(self):
        _store_plain(self)
        features = np.asarray(self.features)
        if features.dtype != np.uint8:
            features = features.astype(np.float64, copy=False)
        labels = np.asarray(self.labels)
        if not np.issubdtype(labels.dtype, np.integer):  # a float or bool label is no class index
            raise ValueError(f"labels must be integer class indices, got dtype {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(f"{features.shape[0]} feature rows but {labels.shape} labels")
        if features.shape[0] == 0:
            raise ValueError(f"dataset {self.name!r} has no rows; training and evaluation need rows")
        if features.shape[1] == 0:
            raise ValueError(f"dataset {self.name!r} has no feature columns")
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise ValueError(f"labels must lie in [0, {self.class_count})")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def rows(self, index, out=None) -> np.ndarray:
        """float64 feature rows `features[index]`.

        Bytes are converted as byte / 255.0, into `out` when it is given.
        float64 features are returned as stored (a view for a slice) and
        leave `out` unused.
        """
        x = self.features[index]
        if x.dtype != np.uint8:
            return x
        return np.divide(x, 255.0, out=out, dtype=np.float64)


def _read_batch_file(path: Path, records: np.ndarray) -> None:
    """Check one batch file while reading it into `records`, a C-contiguous (10000, 3073) uint8 block.

    A missing or malformed file raises ValueError; an offset in it counts from the start of the file.
    """
    if not path.is_file():
        raise ValueError(f"{path}: missing CIFAR-10 batch file")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == FILE_BYTES:
            size = fh.readinto(records)
    if size != FILE_BYTES:
        raise ValueError(f"{path}: expected {FILE_BYTES} bytes, found {size}")
    bad = np.flatnonzero(records[:, 0] > 9)
    if bad.size:
        record = int(bad[0])
        raise ValueError(f"{path}: label byte {records[record, 0]} > 9 at offset {record * RECORD_BYTES}")


def _read_split(base: Path, names, split: str) -> Dataset:
    """The named files read in order into one record buffer, served as the Dataset `split`."""
    records = np.empty((len(names) * RECORDS_PER_FILE, RECORD_BYTES), dtype=np.uint8)
    for i, name in enumerate(names):
        _read_batch_file(base / name, records[i * RECORDS_PER_FILE:(i + 1) * RECORDS_PER_FILE])
    return Dataset(records[:, 1:], records[:, 0].astype(np.int64), name=split, class_count=CIFAR_CLASSES)


def load_cifar10(directory) -> tuple[Dataset, Dataset]:
    """Load (train, validation) from the six canonical binary files.

    Train is the 50,000 samples of data_batch_1..5.bin; validation is the
    10,000-sample test_batch.bin (the held-out split all metrics are
    reported on). Each split's files are read, with no intermediate
    copy, into one (records, 3073) uint8 buffer in file order. The
    split's features are the view `records[:, 1:]` of that buffer (row
    stride 3073 bytes, so not C-contiguous); its labels are the label
    column widened to int64.
    """
    base = Path(directory).expanduser()
    return _read_split(base, TRAIN_FILES, "cifar10-train"), _read_split(base, (TEST_FILE,), "cifar10-validation")


def make_blobs(per_class: int, classes: int, dim: int, separation: float, seed: int) -> Dataset:
    """Axis-aligned Gaussian clusters rescaled into [0, 1].

    Class c is centred `separation` along coordinate axis c with unit
    within-class variance, so `separation` is the between-class distance
    in standard deviations. Rows are shuffled and seeded; BlobSpec checks the arguments.
    """
    rng = np.random.default_rng(seed)
    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes)] = separation
    features = np.vstack([rng.normal(means[c], 1.0, size=(per_class, dim)) for c in range(classes)])
    labels = np.repeat(np.arange(classes), per_class)
    order = rng.permutation(classes * per_class)
    features, labels = features[order], labels[order]
    lo = features.min(axis=0)
    span = features.max(axis=0) - lo
    span[span == 0] = 1.0
    features = np.clip((features - lo) / span, 0.0, 1.0)
    return Dataset(features, labels, name=f"blobs-{classes}x{per_class}", class_count=classes)


def batches(dataset: Dataset, batch_size: int, seed: int):
    """Yield (float64 features, class-index labels) covering every sample exactly once.

    The order is a permutation drawn from `seed` alone (harness.run
    passes a fresh one per epoch); the last batch may be short.
    """
    order = np.random.default_rng(seed).permutation(dataset.n)
    for start in range(0, dataset.n, batch_size):
        idx = order[start:start + batch_size]
        yield dataset.rows(idx), dataset.labels[idx]
