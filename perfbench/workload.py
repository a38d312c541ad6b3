"""One benchmark workload, measured in this process.

Started by run.py with the BLAS thread count fixed and `src` and this
directory on sys.path. Steps, in order:

1. Check the benchmark's own arithmetic (selfcheck.py).
2. Generate the workload's corpus from --seed (corpus.py). Untimed.
3. Set up `setup_reps` times, each in a fresh process (setup_probe.py):
   import lifedrop and build the train and validation Datasets
   (load_cifar10 for cifar-full-alpha). setup_s is the median. For the
   in-memory workloads, half of these set-ups run after step 4.
4. --trace 0: train the workload's fixed configuration again and again,
   each run a fresh `harness.run(config, data=...)`, while another run
   still fits in --seconds (at least one). epoch_s is the median over
   runs of run time / epochs.
   --trace 1: one untraced run, then one run with timing wrappers swapped
   into the module attributes the training loop calls through; report
   the per-layer figures and the tracing overhead.
5. Check every run's outputs; a run that raises or fails a check counts
   as failed.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
import lifedrop as ld
import selfcheck
import spans as sp
from setup_probe import SUBSET_ARRAYS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLASSES = 10


@dataclass(frozen=True)
class Workload:
    arch: str
    kind: str
    batch: int
    lr: float
    epochs: int
    setup_reps: int
    full_cifar: bool = False
    patience: int = 5


# Why each workload: see README.md. Epoch counts keep one trace-1 call
# (an untraced plus a traced run) well inside the time limit.
WORKLOADS = {
    # BLAS-bound, and the only one whose board thins. patience=2 makes the
    # monitor fire within the run on every seed tried (with 5 it fired
    # within 30 epochs on 4 of 7 seeds only).
    "arch1-dynamic": Workload("arch1", "dynamic", 512, 0.05, epochs=20, setup_reps=15, patience=2),
    # Many small batches and layers: per-call overhead; no lattice.
    "arch3-classical": Workload("arch3", "classical", 128, 0.02, epochs=6, setup_reps=15),
    # The full 50k/10k corpus read from disk: loader, residency, offsets.
    "cifar-full-alpha": Workload("arch3", "alpha", 128, 0.02, epochs=1, setup_reps=5, full_cifar=True),
}

END_TO_END = {"setup_s": "s", "epoch_s": "s", "peak_rss_mb": "MiB", "tail_train_acc": "fraction",
              "tail_val_acc": "fraction"}
# Accuracy swings by tens of points from one epoch to the next under the
# dynamic mask, so quality is the mean over the last TAIL epochs' rows.
TAIL = 5


def environment() -> dict:
    """Facts a result depends on: bit identity differs across numpy/BLAS builds."""
    facts = {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)), "blas": "unknown", "blas_config": "unknown",
             "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    # Ask the loaded OpenBLAS itself; its symbols carry a build-specific prefix.
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs[:1]:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_"), ("openblas_", "64_")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                facts["blas_threads"] = get_threads()
                facts["blas_config"] = get_config().decode()
                break
    return facts


def probe_setup(source: Path) -> dict:
    """{"setup_s", "load_s"} of one set-up in a fresh process."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(source)],
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def config(w: Workload, seed: int, out: Path):
    reg = ld.RegularizerConfig(kind=w.kind, rate=0.5, lattice_density=0.5, seed=seed)
    return ld.RunConfig(architecture=w.arch, regularizer=reg, output_dir=out, epochs=w.epochs,
                        batch_size=w.batch, learning_rate=w.lr, seed=seed, snapshot_epochs=(),
                        patience=w.patience)


def check_run(w: Workload, history, out: Path) -> list[str]:
    """Output checks for one finished run; empty when all hold."""
    problems = []
    rows = ld.harness.read_metrics(out / "metrics.csv")
    if len(rows) != w.epochs or len(history) != w.epochs:
        problems.append(f"{len(rows)} metrics.csv rows and {len(history)} records for {w.epochs} epochs")
    if [r.epoch for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("metrics.csv epochs are not 1..N")
    if not all(math.isfinite(r.train_loss) and math.isfinite(r.val_loss) for r in [*rows, *history]):
        problems.append("a loss is not finite")
    if w.kind == "dynamic" and rows:
        if max(r.train_acc for r in rows) < 2.0 / CLASSES:
            problems.append(f"best train accuracy {max(r.train_acc for r in rows):.3f} is not above chance")
        if min(r.live_mask_fraction for r in rows) > rows[0].live_mask_fraction / 2:
            problems.append("the board did not thin to half its first-epoch live fraction")
        if sum(r.reactivated_cells for r in rows) == 0:
            problems.append("no reactivation fired")
    return problems


class Runs:
    """Training runs of one workload, with their outcomes."""

    def __init__(self, w: Workload, seed: int, data, work: Path):
        self.w, self.seed, self.data, self.work = w, seed, data, work
        self.attempted = 0
        self.failed = 0
        self.seconds: list[float] = []
        self.rows = None
        self.csv = None

    def train(self, run=None) -> bool:
        """One run; `run` replaces harness.run (the traced path passes a wrapper)."""
        self.attempted += 1
        out = self.work / f"run-{self.attempted}"
        try:
            cfg = config(self.w, self.seed, out)
            started = time.perf_counter()
            history = (run or ld.harness.run)(cfg, data=self.data)
            elapsed = time.perf_counter() - started
            problems = check_run(self.w, history, out)
            csv = (out / "metrics.csv").read_bytes()
            if self.csv is not None and csv != self.csv:
                problems.append("metrics.csv differs from the first run's with the same seed")
        except Exception:  # a crashing run is a failed operation, not the end of the benchmark
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            return False
        self.seconds.append(elapsed)
        if self.csv is None:
            self.csv = csv
            self.rows = ld.harness.read_metrics(out / "metrics.csv")
        shutil.rmtree(out)
        return True


def traced_run(runs: Runs) -> dict:
    """Train once with every layer wrapped; returns the per-layer figures."""
    tracer = sp.Tracer()
    harness, nn, reg = ld.harness, ld.nn, ld.regularizers
    wrap, wrap_iter = tracer.wrap, tracer.wrap_iter
    tracer.install(harness, "batches", lambda f: wrap_iter("data.batches", f, sp.gather_counts))
    tracer.install(harness, "evaluate", lambda f: wrap("harness.evaluate", f, sp.evaluate_counts))
    for name in ("classical_gain", "gaussian_gain", "alpha_affine"):
        tracer.install(harness, name, lambda f: wrap("regularizers.noise", f, sp.noise_counts))
    tracer.install(harness, "derive_seed", lambda f: wrap("seeding.derive_seed", f))
    tracer.install(harness, "on_epoch_end_dynamic", lambda f: wrap("regularizers.on_epoch_end_dynamic", f))
    tracer.install(nn, "forward", lambda f: wrap("nn.forward", f))
    tracer.install(nn, "dense_forward", lambda f: wrap("nn.dense_forward", f, sp.dense_counts))
    tracer.install(nn, "backward", lambda f: wrap("nn.backward", f, sp.backward_counts))
    tracer.install(nn, "sgd_step", lambda f: wrap("nn.sgd_step", f, sp.sgd_counts))
    tracer.install(reg, "step", lambda f: wrap("lattice.step", f))
    tracer.install(reg, "reactivate", lambda f: wrap("lattice.reactivate", f))
    try:
        ok = runs.train(wrap("harness.run", harness.run))
    finally:
        tracer.restore()
    return sp.fold(tracer.spans, runs.w.epochs) if ok else {}


def measure(name: str, seed: int, seconds: int, trace: bool, work: Path):
    """(correct, attempted, failed, metrics) for one workload."""
    w = WORKLOADS[name]
    problems = selfcheck.check()
    for line in problems:
        print(f"selfcheck: {line}", file=sys.stderr)

    if w.full_cifar:
        source = work / "cifar"
        mb_read = sum(p.stat().st_size for p in corpus.write_cifar(source, seed)) / sp.MIB
    else:
        arrays = corpus.subset(seed)
        source = work / "subset"
        source.mkdir()
        for key, array in zip(SUBSET_ARRAYS, arrays):
            np.save(source / f"{key}.npy", array)
        mb_read = 0.0
    probe_setup(source)  # the first load after writing the corpus runs up to twice as slow; discard it
    before = w.setup_reps if w.full_cifar else w.setup_reps // 2
    probes = [probe_setup(source) for _ in range(before)]
    if w.full_cifar:
        data = ld.load_cifar10(source)
    else:
        tx, ty, vx, vy = arrays
        data = (ld.Dataset(tx, ty, name="train-5k", class_count=CLASSES),
                ld.Dataset(vx, vy, name="val-2k", class_count=CLASSES))

    runs = Runs(w, seed, data, work)
    if trace:
        runs.train()
        metrics = traced_run(runs) if runs.seconds else {}
        if metrics:
            untraced = runs.seconds[0] / w.epochs
            metrics["trace.overhead_frac"] = (metrics["trace.epoch_s"] - untraced) / untraced
            metrics["data.resident_mb"] = sp.resident_mb(*data)
            if w.full_cifar:
                metrics["data.load_cifar10.s"] = statistics.median(p["load_s"] for p in probes)
                metrics["data.load_cifar10.mb_read"] = mb_read
            metrics["lattice.revived_cells"] = float(sum(r.reactivated_cells for r in runs.rows))
            metrics["lattice.live_fraction_mean"] = statistics.fmean(r.live_mask_fraction for r in runs.rows)
            accounted = sum(metrics[k] for k in sp.SELF_FIGURES)
            if abs(accounted - metrics["trace.epoch_s"]) > 1e-9 * metrics["trace.epoch_s"]:
                problems.append(f"self times sum to {accounted} s, traced epoch is {metrics['trace.epoch_s']} s")
        units = sp.LAYER_METRICS
    else:
        deadline = time.perf_counter() + seconds
        while True:
            runs.train()
            typical = statistics.median(runs.seconds) if runs.seconds else 0.0
            if time.perf_counter() + typical > deadline:
                break
        # The machine's speed drifts over tens of seconds, so the other half of
        # the in-memory set-ups runs after training. Cifar's would hold a second
        # full copy of the corpus next to the training one.
        probes += [probe_setup(source) for _ in range(w.setup_reps - before)]
        metrics = {}
        if runs.seconds:
            tail = runs.rows[-TAIL:]
            metrics = {"setup_s": statistics.median(p["setup_s"] for p in probes),
                       "epoch_s": statistics.median(runs.seconds) / w.epochs,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "tail_train_acc": statistics.fmean(r.train_acc for r in tail),
                       "tail_val_acc": statistics.fmean(r.val_acc for r in tail)}
        units = END_TO_END
    correct = not problems and runs.failed == 0 and bool(metrics)
    return correct, runs.attempted, runs.failed, {k: {"value": metrics[k], "unit": u}
                                                   for k, u in units.items() if k in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds,
                                                      bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    if not metrics:
        print(f"{args.workload}: no result, every run failed", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(), sort_keys=True))
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
