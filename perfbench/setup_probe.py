"""One set-up in a fresh process, as a user's first run would pay it.

    python3 setup_probe.py <cifar-dir | subset-dir>

Imports numpy (and, for a subset, loads its arrays) untimed, then times
`import lifedrop` plus building the train and validation Datasets:
load_cifar10 on a directory of the six .bin files, Dataset(...) on the
train_x/train_y/val_x/val_y .npy arrays otherwise. Prints
{"setup_s", "load_s"} as JSON; load_s leaves out the import.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

SUBSET_ARRAYS = ("train_x", "train_y", "val_x", "val_y")


def main(source: Path) -> None:
    subset = (source / "train_x.npy").is_file()
    arrays = [np.load(source / f"{name}.npy") for name in SUBSET_ARRAYS] if subset else None
    started = time.perf_counter()
    import lifedrop

    loading = time.perf_counter()
    if subset:
        tx, ty, vx, vy = arrays
        lifedrop.Dataset(tx, ty, name="train-5k", class_count=10)
        lifedrop.Dataset(vx, vy, name="val-2k", class_count=10)
    else:
        lifedrop.load_cifar10(source)
    done = time.perf_counter()
    print(json.dumps({"setup_s": done - started, "load_s": done - loading}))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
