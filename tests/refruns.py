"""Reference-run ledger: nine fixed training runs and the sha256 of every file they write.

    python tests/refruns.py

It trains the `lifedrop` package under this checkout's `src`; to hash an
older version, copy the script into that checkout's `tests/` and run it
there. The script runs with one BLAS thread, because the thread count
changes the last bits of a matmul. It prints an `env` line (numpy, BLAS
build and threads), then one `run file sha256` line per artifact,
sorted: `manifest.txt`, `metrics.csv` and, for the dynamic runs, a board
snapshot per epoch. Two versions of the code train identically on this
machine exactly when their outputs are equal, so diff them. pytest does
not collect this file.

The runs, all seed 0:
- blob-<kind> for the five kinds: architecture (16, 16), rate 0.3,
  patience 2, 8 epochs, BlobSpec(per_class=200), batch 64, lr 0.1;
- arch1-dynamic and arch3-classical: perfbench's configurations on
  corpus.subset(0);
- cifar-full-alpha: perfbench's configuration on corpus.write_cifar(dir, 0)
  read by load_cifar10;
- arch1-dynamic-bytes: perfbench's arch1-dynamic for 4 epochs on
  corpus.subset(0) stored as uint8 bytes.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")  # before numpy loads BLAS
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # importing perfbench's modules leaves no __pycache__ in perfbench/

import numpy as np

import corpus
import workload
from lifedrop import BlobSpec, Dataset, RegularizerConfig, RunConfig, load_cifar10, run

SEED = 0
BLOB_KINDS = ("none", "classical", "gaussian", "alpha", "dynamic")


def every_epoch(config: RunConfig) -> RunConfig:
    return dataclasses.replace(config, snapshot_epochs=tuple(range(1, config.epochs + 1)))


def perfbench_config(name: str, out: Path, **changes) -> RunConfig:
    w = dataclasses.replace(workload.WORKLOADS[name], **changes)
    return every_epoch(workload.config(w, SEED, out))


def recipes(work: Path):
    """(run name, config, injected (train, validation) or None) per reference run."""
    for kind in BLOB_KINDS:
        yield f"blob-{kind}", every_epoch(RunConfig(
            architecture=(16, 16), regularizer=RegularizerConfig(kind=kind, rate=0.3),
            output_dir=work / f"blob-{kind}", epochs=8, batch_size=64, learning_rate=0.1, seed=SEED,
            patience=2, blobs=BlobSpec(per_class=200))), None

    tx, ty, vx, vy = corpus.subset(SEED)
    subset = (Dataset(tx, ty, name="train-5k", class_count=corpus.CLASSES),
              Dataset(vx, vy, name="val-2k", class_count=corpus.CLASSES))
    for name in ("arch1-dynamic", "arch3-classical"):
        yield name, perfbench_config(name, work / name), subset

    as_bytes = tuple(Dataset(np.round(d.features * 255.0).astype(np.uint8), d.labels, name=d.name,
                             class_count=d.class_count) for d in subset)
    yield "arch1-dynamic-bytes", perfbench_config("arch1-dynamic", work / "arch1-dynamic-bytes", epochs=4), as_bytes

    corpus.write_cifar(work / "cifar", SEED)
    cifar = load_cifar10(work / "cifar")
    yield "cifar-full-alpha", perfbench_config("cifar-full-alpha", work / "cifar-full-alpha"), cifar


def main() -> int:
    started = time.perf_counter()
    print("env " + json.dumps(workload.environment(), sort_keys=True), flush=True)
    with tempfile.TemporaryDirectory(prefix="refruns-") as tmp:
        for name, config, data in recipes(Path(tmp)):
            run(config, data=data)
            for path in sorted(Path(config.output_dir).iterdir()):
                print(f"{name} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}", flush=True)
    print(f"refruns: {time.perf_counter() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
