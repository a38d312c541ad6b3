"""Every setting, and the experiment driver.

RegularizerConfig, BlobSpec and RunConfig are plain dataclasses, each field
a setting read with its real annotation and held as a plain Python value by
one rule (see data._plain: no bool is a number, a path is a str). The driver
wires data, network, and regularizer into the training loop, records
per-epoch metrics, writes lattice snapshots and a rerunnable manifest, and
summarizes finished runs. A run is a deterministic function of its config:
identical configs produce byte-identical metrics files and snapshots.
"""

import ast
import contextvars
import os
import threading
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from lifedrop import nn
from lifedrop.data import Dataset, _plain, _store_plain, batches, load_cifar10, make_blobs
from lifedrop.lattice import init_random, write_pbm
from lifedrop.regularizers import alpha_affine, classical_gain, gaussian_gain, on_epoch_end_dynamic

ARCH_PRESETS = {
    "arch1": (512, 512, 512),
    "arch2": (128,) * 10,
    "arch3": (64,) * 10,
}

KINDS = ("none", "classical", "gaussian", "alpha", "dynamic")

SUMMARY_HEADER = "run,regularizer,final_train_loss,final_val_loss,final_train_acc,final_val_acc,max_val_acc,final_gap"


def derive_seed(master: int, *key) -> int:
    """Stable child seed for (master, key), key parts str or int: run and its helpers key every stream with it."""
    parts: list[int] = []
    for item in key:
        if isinstance(item, str):
            parts.extend(item.encode())
        else:
            parts.append(int(item) & 0xFFFFFFFF)
    ss = np.random.SeedSequence(entropy=int(master) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(parts))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class RegularizerConfig:
    kind: str
    rate: float = 0.5
    lattice_density: float = 0.5
    reactivation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _store_plain(self)
        if self.kind not in KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must lie in [0, 1), got {self.rate}")
        if not 0.0 <= self.lattice_density <= 1.0:
            raise ValueError(f"lattice_density must lie in [0, 1], got {self.lattice_density}")
        if not 0.0 < self.reactivation_fraction <= 1.0:
            raise ValueError(f"reactivation_fraction must lie in (0, 1], got {self.reactivation_fraction}")


@dataclass(frozen=True)
class BlobSpec:
    """Parameters for the synthetic-blob data source (see data.make_blobs), checked when built."""

    per_class: int = 500
    classes: int = 4
    dim: int = 32
    separation: float = 10.0

    def __post_init__(self):
        _store_plain(self)
        for name in ("per_class", "classes", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.separation < np.inf:  # also false for NaN
            raise ValueError(f"separation must be finite and non-negative, got {self.separation}")
        if self.dim < self.classes:
            raise ValueError(f"dim ({self.dim}) must be at least classes ({self.classes}) for axis-aligned means")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on, checked when built so that a bad config
    fails before anything is written. Each field is a setting a caller gives.
    """

    architecture: str | tuple[int, ...]  # preset name, "custom:w1,w2,...", or explicit widths
    regularizer: RegularizerConfig
    output_dir: str | Path
    epochs: int = 100
    batch_size: int = 512
    learning_rate: float = 0.01
    seed: int = 0
    snapshot_epochs: tuple[int, ...] = (1, 10, 20)
    patience: int = 5  # stalled epochs that fire a reactivation (dynamic only)
    min_delta: float = 1e-3  # how far validation loss must fall to count as an improvement
    data_dir: str | Path | None = None
    blobs: BlobSpec | None = None

    def __post_init__(self):
        _store_plain(self)
        if not isinstance(self.regularizer, RegularizerConfig):
            raise ValueError(f"regularizer must be a RegularizerConfig, got {self.regularizer!r}")
        if self.blobs is not None and not isinstance(self.blobs, BlobSpec):
            raise ValueError(f"blobs must be a BlobSpec or None, got {self.blobs!r}")
        arch, widths = self.architecture, resolve_architecture(self.architecture)  # a name stays a str, widths a tuple
        object.__setattr__(self, "architecture", str(arch) if isinstance(arch, str) else widths)
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if any(e < 1 for e in self.snapshot_epochs):
            raise ValueError(f"snapshot_epochs must be at least 1, got {self.snapshot_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if not 0 <= self.min_delta < np.inf:  # also false for NaN
            raise ValueError(f"min_delta must be finite and non-negative, got {self.min_delta}")
        if not 0 < self.learning_rate < np.inf:  # also false for NaN
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.regularizer.kind == "dynamic" and len(set(widths)) != 1:
            raise ValueError("dynamic regularizer needs uniform hidden widths "
                             f"(the lattice is rectangular), got {widths}")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    val_loss: float
    train_acc: float
    val_acc: float
    gap: float  # train_acc - val_acc
    live_mask_fraction: float  # lattice live fraction during this epoch (dynamic only)
    reactivated_cells: int


# metrics.csv columns in order, each with the type that sets its format
_METRIC_TYPES = {f.name: f.type for f in fields(EpochMetrics)}
METRICS_HEADER = ",".join(_METRIC_TYPES)


def resolve_architecture(arch) -> tuple[int, ...]:
    """Preset name, custom:<w1,w2,...> string, or explicit width sequence."""
    if isinstance(arch, str):
        if arch in ARCH_PRESETS:
            return ARCH_PRESETS[arch]
        if arch.startswith("custom:"):
            try:
                widths = tuple(int(w) for w in arch.removeprefix("custom:").split(","))
            except ValueError:
                raise ValueError(f"cannot parse custom architecture {arch!r}") from None
        else:
            raise ValueError(f"unknown architecture preset {arch!r} "
                             f"(expected one of {sorted(ARCH_PRESETS)} or custom:<w1,w2,...>)")
    else:
        widths = _plain("architecture widths", tuple[int, ...], arch)
    if not widths or any(w < 1 for w in widths):
        raise ValueError(f"layer widths must be positive, got {widths}")
    return widths


def _started(fn, *args):
    """Start fn(*args) on a new thread and return its join(), which waits
    for the thread and gives back fn's result or raises its error. The
    thread runs in a copy of the caller's context, so the caller's
    np.errstate holds in it too."""
    outcome = {}

    def call() -> None:
        try:
            outcome["result"] = fn(*args)
        except BaseException as exc:  # raised again by join, in the caller
            outcome["error"] = exc

    thread = threading.Thread(target=contextvars.copy_context().run, args=(call,))
    thread.start()

    def join():
        thread.join()
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]

    return join


# Rows one thread reads at a time. Stored bytes are scaled into a new float64 chunk and
# float64 features are read in place, so evaluate's two threads keep at most 256 float64
# rows alive: 6 MiB at 3,072 features.
_CHUNK = 128


def evaluate(network, dataset: Dataset) -> tuple[float, float]:
    """Full-dataset loss and accuracy with every regularizer disabled.

    The rows are read _CHUNK at a time, each chunk freed before its thread
    reads the next. The calling thread takes the even chunks and one helper
    thread (see _started) the odd ones, so numpy's matmuls and ufuncs, which
    release the GIL, run on two cores; the helper's error, if any, is raised
    here once it has finished. Each thread writes its rows' probability of
    their labelled class into one array and counts its own hits; the loss
    is one reduction over that array, so neither the chunk size nor the
    split changes a bit of the result.
    """
    true_probs = np.empty(dataset.n)
    hits = [0, 0]

    def take(part: int) -> None:  # chunks part, part + 2, part + 4, ...
        for start in range(part * _CHUNK, dataset.n, 2 * _CHUNK):
            y = dataset.labels[start:start + _CHUNK]
            probs = nn.forward(network, dataset.rows(slice(start, start + _CHUNK)))[0]  # frees rows and trace
            true_probs[start:start + y.shape[0]] = probs[np.arange(y.shape[0]), y]
            hits[part] += int((probs.argmax(axis=1) == y).sum())

    join = _started(take, 1)
    try:
        take(0)
    finally:
        join()
    return nn.cross_entropy(true_probs), sum(hits) / dataset.n


def _load_data(config: RunConfig, data: tuple[Dataset, Dataset] | None) -> tuple[Dataset, Dataset]:
    """The (train, validation) pair from the run's one data source: injected
    datasets, config.data_dir or config.blobs, exactly one of them, since a
    manifest naming data the run never read would rerun on other data. The
    pair is checked to agree in feature width and class count and to hold
    finite features."""
    if (data is not None) + (config.data_dir is not None) + (config.blobs is not None) != 1:
        raise ValueError("set exactly one data source: data_dir, blobs, or injected datasets")
    if data is not None:
        train_ds, val_ds = data
    elif config.data_dir is not None:
        train_ds, val_ds = load_cifar10(config.data_dir)
    else:
        b = config.blobs  # train, then a validation set a fifth the size
        train_ds, val_ds = (make_blobs(n, b.classes, b.dim, b.separation, seed=derive_seed(config.seed, "blobs", i))
                            for i, n in enumerate((b.per_class, max(1, b.per_class // 5))))
    width, classes = train_ds.features.shape[1], train_ds.class_count
    if (val_ds.features.shape[1], val_ds.class_count) != (width, classes):
        raise ValueError(f"validation set has {val_ds.features.shape[1]} features and {val_ds.class_count} "
                         f"classes; the training set has {width} and {classes}")
    # scanned here, not when a Dataset is built, to keep set-up cheap; bytes are finite, and
    # min and max carry a NaN and catch either infinity without an n x dim temporary
    for ds in (train_ds, val_ds):
        f = ds.features
        if f.dtype != np.uint8 and not (np.isfinite(f.min()) and np.isfinite(f.max())):
            raise ValueError(f"dataset {ds.name!r} has NaN or infinite features")
    return train_ds, val_ds


def _batch_scales(widths, reg: RegularizerConfig, batch_n: int, epoch: int, batch_i: int):
    """Per hidden layer, fresh (gain, offset) noise drawn in order from one Generator per batch; None if noiseless."""
    # built per call, since perfbench's tracer swaps these module attributes at run time
    draw = {"classical": classical_gain, "gaussian": gaussian_gain, "alpha": alpha_affine}.get(reg.kind)
    if draw is None:
        return None
    rng = np.random.default_rng(derive_seed(reg.seed, "noise", epoch, batch_i))
    return [draw((batch_n, width), reg.rate, rng) for width in widths]


def _reorder_units(network, orders) -> None:
    """Put hidden layer l's units in orders[l], in place: rows of its (W, b), columns of the next W."""
    for (w, b), (w_next, _), order in zip(network, network[1:], orders):
        w[:], b[:], w_next[:] = w[order], b[order], w_next[:, order]


def run(config: RunConfig, data: tuple[Dataset, Dataset] | None = None) -> list[EpochMetrics]:
    """Train per the config and return one metrics record per epoch.

    Each epoch iterates seeded mini-batches, then measures loss and
    accuracy over the full train and validation sets in evaluation mode,
    and finally runs the dynamic epoch-end hook (monitor -> reactivate ->
    board step), which carries the monitor as (best validation loss,
    epochs since it improved) and reads patience and min_delta from the
    RunConfig that checks them. Baselines draw fresh (gain, offset) noise per batch.
    One helper thread (see _started) prepares batch b + 1 (its gather, byte
    scaling, labels and noise draws, none of which reads the weights) while
    this thread trains batch b, so two batches are alive at a time. Each
    batch's noise comes from its own (epoch, batch)-keyed generator, so the
    split changes no value; an error in either thread is raised once the
    helper has finished. The dynamic board, a (hidden layers, width) uint8 array, is
    generation e - 1 in epoch e and fixed for the epoch, so the epoch
    moves each layer's kept units to the front of (W, b), trains the
    leading blocks as views (a dropped unit would get zero gradient) and
    moves the units back before evaluation. metrics.csv is rewritten
    after every epoch, so a run that raises keeps the epochs it finished.
    An epoch whose train or validation loss is not finite skips the hook,
    is written with NaN accuracies and gap, and raises ValueError naming
    it: run's one divergence check. `data` injects (train, validation)
    datasets, with neither config.data_dir nor config.blobs set. Every run,
    zero epochs included, loads its data and checks it (one source, equal
    feature width and class count, finite float features) before
    manifest.txt is written, so a refused run leaves no files. Zero epochs
    write the manifest alone.
    """
    reg = config.regularizer
    train_ds, val_ds = _load_data(config, data)  # before any file is written
    out = Path(config.output_dir).expanduser()
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(config, out / "manifest.txt")

    width, classes = train_ds.features.shape[1], train_ds.class_count
    widths = resolve_architecture(config.architecture)
    network = nn.init_network(widths, width, classes, seed=derive_seed(config.seed, "init"))

    board = monitor = None
    if reg.kind == "dynamic":
        board = init_random(len(widths), widths[0], reg.lattice_density,
                            seed=derive_seed(config.seed, "lattice"))
        monitor = (np.inf, 0)  # (best validation loss, epochs since it improved)

    batch_seed = derive_seed(config.seed, "batches")
    history: list[EpochMetrics] = []
    for epoch in range(1, config.epochs + 1):
        trained = network
        live_frac = 0.0
        if board is not None:
            live_frac = float(board.mean())
            if epoch in config.snapshot_epochs:
                write_pbm(board, out / f"lattice_epoch_{epoch}.pbm")
            # kept units (board 0) to the front, in their order; kept[l] counts layer l's inputs
            orders = [np.argsort(row, kind="stable") for row in board]
            _reorder_units(network, orders)
            kept = [width, *(row.size - int(row.sum()) for row in board), classes]
            trained = [(w[:rows, :cols], b[:rows]) for (w, b), cols, rows in zip(network, kept, kept[1:])]

        shuffle_seed = derive_seed(batch_seed, "shuffle", epoch)
        prepared = ((x, y, _batch_scales(widths, reg, x.shape[0], epoch, batch_i))
                    for batch_i, (x, y) in enumerate(batches(train_ds, config.batch_size, shuffle_seed)))
        join = _started(next, prepared, None)
        while (batch := join()) is not None:
            join = _started(next, prepared, None)  # batch b + 1, prepared while this thread trains batch b
            try:
                x, y, scales = batch
                _, trace = nn.forward(trained, x, scales=scales)
                nn.sgd_step(trained, nn.backward(trained, trace, y), config.learning_rate)
            except BaseException:
                join()  # no helper outlives run
                raise
            del batch, x, y, scales, trace  # free batch b before batch b + 2 is gathered

        del trained  # the views go, and the units go back to the order evaluation and the board use
        if board is not None:
            _reorder_units(network, [np.argsort(order) for order in orders])
        train_loss, train_acc = evaluate(network, train_ds)
        val_loss, val_acc = evaluate(network, val_ds)
        finite = np.isfinite([train_loss, val_loss]).all()
        if not finite:  # argmax over NaN probabilities counts class 0, which is no accuracy
            train_acc = val_acc = np.nan
        reactivated = 0
        if board is not None and finite:
            revival_seed = derive_seed(reg.seed, "reactivate", epoch - 1)  # keyed on the board's generation
            board, monitor, _, reactivated = on_epoch_end_dynamic(board, revival_seed, monitor, val_loss, config)
        history.append(EpochMetrics(epoch=epoch, train_loss=train_loss, val_loss=val_loss,
                                    train_acc=train_acc, val_acc=val_acc,
                                    gap=train_acc - val_acc, live_mask_fraction=live_frac,
                                    reactivated_cells=reactivated))
        write_metrics(history, out / "metrics.csv")
        if not finite:
            raise ValueError(f"training diverged in epoch {epoch}: train loss {train_loss}, validation loss {val_loss}")
    return history


def write_metrics(history, path) -> None:
    """CSV, one row per epoch (ints as they are, floats to 6 decimals), via `<path>.tmp` and a rename."""
    lines = [METRICS_HEADER]
    for m in history:
        lines.append(",".join(str(getattr(m, name)) if kind is int else f"{getattr(m, name):.6f}"
                              for name, kind in _METRIC_TYPES.items()))
    Path(f"{path}.tmp").write_text("\n".join(lines) + "\n", newline="\n")
    os.replace(f"{path}.tmp", path)


def read_metrics(path) -> list[EpochMetrics]:
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"{path}: missing metrics file")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: malformed metrics header")
    history = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(_METRIC_TYPES):
            raise ValueError(f"{path}:{lineno}: expected {len(_METRIC_TYPES)} fields, got {len(cells)}")
        try:
            history.append(EpochMetrics(*(kind(cell) for kind, cell in zip(_METRIC_TYPES.values(), cells))))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return history


def _manifest_entries(obj, prefix=""):
    """(key, value) per field but output_dir; nested dataclasses give dotted keys."""
    for f in fields(obj):
        if f.name == "output_dir":
            continue
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _manifest_entries(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def write_manifest(config: RunConfig, path) -> None:
    """Everything needed to rerun the experiment: a `key = value` line per config field.

    Values are the reprs of the plain values a config holds (a path-like
    or numpy-string data_dir is held as its str), and nested configs give
    dotted keys such as `regularizer.rate`.
    The last line, `layers`, records the resolved widths.
    """
    lines = [f"{key} = {value!r}" for key, value in _manifest_entries(config)]
    lines.append(f"layers = {resolve_architecture(config.architecture)!r}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _pop_fields(cls, entries: dict, prefix="", skip=()) -> dict:
    """`cls`'s fields but `skip`, popped from the manifest entries under `prefix`."""
    return {f.name: entries.pop(prefix + f.name) for f in fields(cls) if f.name not in skip}


def config_from_manifest(path, output_dir) -> RunConfig:
    """Rebuild the RunConfig recorded by write_manifest.

    The nested configs are read from their dotted keys, `regularizer.*`
    and `blobs.*` (or `blobs = None`). Blank lines are skipped. A missing,
    unknown, repeated or malformed key, or a `layers` line that differs
    from the resolved widths, raises ValueError naming the path.
    """
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"{path}: missing manifest file")
    entries = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"{path}:{lineno}: malformed manifest line {line!r}")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate manifest key {key!r}")
        try:
            entries[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            raise ValueError(f"{path}:{lineno}: malformed manifest value {value!r}") from None
    try:
        kwargs = _pop_fields(RunConfig, entries, skip=("output_dir", "regularizer", "blobs"))
        regularizer = RegularizerConfig(**_pop_fields(RegularizerConfig, entries, "regularizer."))
        if "blobs" in entries and entries["blobs"] is None:  # how write_manifest records no blobs
            blobs = entries.pop("blobs")
        else:
            blobs = BlobSpec(**_pop_fields(BlobSpec, entries, "blobs."))
        config = RunConfig(output_dir=output_dir, regularizer=regularizer, blobs=blobs, **kwargs)
        layers = entries.pop("layers")
    except KeyError as exc:
        raise ValueError(f"{path}: manifest is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if entries:
        raise ValueError(f"{path}: unknown manifest key {next(iter(entries))!r}")
    if layers != (widths := resolve_architecture(config.architecture)):
        raise ValueError(f"{path}: layers {layers!r} do not match the architecture's widths {widths}")
    return config


def compare(run_dirs, out_path):
    """Summarize finished runs into one CSV row each.

    Per run: final train/val accuracy and loss, best validation accuracy
    over all epochs, and the final generalization gap. Returns the rows
    and writes them to out_path.
    """
    rows = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir).expanduser()
        history = read_metrics(run_dir / "metrics.csv")
        if not history:
            raise ValueError(f"{run_dir}: metrics.csv has no epoch rows")
        kind = config_from_manifest(run_dir / "manifest.txt", run_dir).regularizer.kind
        last = history[-1]
        rows.append((run_dir.name, kind, last.train_loss, last.val_loss,
                     last.train_acc, last.val_acc,
                     max(m.val_acc for m in history), last.gap))
    lines = [SUMMARY_HEADER]
    lines += (",".join([name, kind, *(f"{v:.6f}" for v in values)]) for name, kind, *values in rows)
    Path(out_path).expanduser().write_text("\n".join(lines) + "\n", newline="\n")
    return rows
