"""Spans recorded from outside the program, and the per-layer figures made from them.

A Tracer swaps module attributes for timing wrappers, so every call the
training loop makes through that attribute becomes a span: name, parent
span, start, end and a few counts computed from the call's arguments and
result. A span is named by the prefix of the metrics it feeds
(`nn.backward` feeds `nn.backward.s` and `nn.backward.gflop`). Spans stay
in memory; `fold` turns them into the per-epoch figures the benchmark
reports. selfcheck.py checks this arithmetic on a hand-built span tree.
"""

from __future__ import annotations

import time

import numpy as np

MIB = float(1 << 20)
GIGA = 1e9

# Network layers reported one by one: arch3 has 10 hidden layers plus the output.
MAX_LAYERS = 11

NAME, PARENT, START, END, COUNTS = range(5)


class Tracer:
    """Records one span per wrapped call; `install` and `restore` patch modules."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """Call-timing wrapper; counts(args, kwargs, result) -> dict of counts."""

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, result)
            return result

        return wrapper

    def wrap_iter(self, name: str, fn, counts=None):
        """Wrapper for a generator function: each next() is one span."""

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                span = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                if counts is not None:
                    span[COUNTS] = counts(item)
                yield item

        return wrapper

    def install(self, module, attr: str, wrapper) -> None:
        """Replace module.attr by wrapper(original); a missing attribute is skipped."""
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# ------------------------------------------------------------- counts per call
# Each takes what the wrapper sees and returns plain numbers, so a refactor
# that changes the program's dataclasses does not change what is counted.


def dense_counts(args, kwargs, z) -> dict:
    """z = a @ W.T + b: 2*n*fan_in*fan_out flops, read from the input and output shapes."""
    a = args[1] if len(args) > 1 else kwargs["a_prev"]
    n, fan_in = np.shape(a)
    return {"gflop": 2 * n * fan_in * np.shape(z)[1] / GIGA}


def backward_counts(args, kwargs, grads) -> dict:
    """dW = dz.T @ a_prev on every layer, da = dz @ W on every layer but the first."""
    y = args[2] if len(args) > 2 else kwargs["y_true"]
    n = np.shape(y)[0]
    flops = sum(2 * n * np.size(dw) * (1 if l == 0 else 2) for l, (dw, _) in enumerate(grads))
    return {"gflop": flops / GIGA}


def sgd_counts(args, kwargs, result) -> dict:
    """Bytes of parameters written: one new value per gradient element."""
    grads = args[1] if len(args) > 1 else kwargs["gradients"]
    return {"mb_written": sum(np.asarray(dw).nbytes + np.asarray(db).nbytes for dw, db in grads) / MIB}


def noise_counts(args, kwargs, result) -> dict:
    """One random number per element of the gain (alpha returns (gain, offset))."""
    gain = result[0] if isinstance(result, tuple) else result
    return {"draws": int(np.size(gain))}


def evaluate_counts(args, kwargs, result) -> dict:
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    return {"rows": int(np.shape(dataset.labels)[0])}


def gather_counts(item) -> dict:
    """One batch: the gathered features and one-hot labels."""
    return {"count": 1, "gather_mb": sum(np.asarray(part).nbytes for part in item) / MIB}


def resident_mb(*datasets) -> float:
    """Bytes of features and labels the datasets hold."""
    return sum(np.asarray(d.features).nbytes + np.asarray(d.labels).nbytes for d in datasets) / MIB


# --------------------------------------------------------------- span folding


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def sibling_rank(spans) -> list[int]:
    """Position of each span among the earlier spans of the same name and parent."""
    seen: dict[tuple[int, str], int] = {}
    rank = []
    for s in spans:
        key = (s[PARENT], s[NAME])
        rank.append(seen.get(key, 0))
        seen[key] = rank[-1] + 1
    return rank


# Per-layer metric names and units, in report order.
LAYER_METRICS: dict[str, str] = {
    "data.load_cifar10.s": "s",
    "data.load_cifar10.mb_read": "MiB",
    "data.resident_mb": "MiB",
    "data.batches.s": "s",
    "data.batches.count": "count",
    "data.batches.gather_mb": "MiB",
    "nn.forward.train_s": "s",
    "nn.forward.eval_s": "s",
    "nn.forward.self_s": "s",
    "nn.forward.calls": "count",
    **{f"nn.dense_forward.L{i}.{q}": u for i in range(MAX_LAYERS) for q, u in (("s", "s"), ("gflop", "GFLOP"))},
    "nn.backward.s": "s",
    "nn.backward.gflop": "GFLOP",
    "nn.sgd_step.s": "s",
    "nn.sgd_step.mb_written": "MiB",
    "harness.evaluate.s": "s",
    "harness.evaluate.self_s": "s",
    "harness.evaluate.rows": "count",
    "regularizers.noise.s": "s",
    "regularizers.noise.draws": "count",
    "regularizers.on_epoch_end_dynamic.s": "s",
    "regularizers.on_epoch_end_dynamic.self_s": "s",
    "regularizers.triggers": "count",
    "lattice.step.s": "s",
    "lattice.reactivate.s": "s",
    "lattice.reactivate.calls": "count",
    "lattice.revived_cells": "count",
    "lattice.live_fraction_mean": "fraction",
    "seeding.derive_seed.calls": "count",
    "seeding.derive_seed.s": "s",
    "harness.run.self_s": "s",
    "trace.epoch_s": "s",
    "trace.overhead_frac": "fraction",
}

# The figures that partition the traced epoch time between them.
SELF_FIGURES = (
    "data.batches.s", "nn.forward.self_s", *(f"nn.dense_forward.L{i}.s" for i in range(MAX_LAYERS)),
    "nn.backward.s", "nn.sgd_step.s", "harness.evaluate.self_s", "regularizers.noise.s",
    "regularizers.on_epoch_end_dynamic.self_s", "lattice.step.s", "lattice.reactivate.s",
    "seeding.derive_seed.s", "harness.run.self_s",
)

# Rare events, reported as totals per training run rather than per epoch.
PER_RUN = ("regularizers.triggers", "lattice.reactivate.calls")


def fold(spans, epochs: int) -> dict[str, float]:
    """Per-epoch figures for every name in LAYER_METRICS.

    The root span (parent -1) is the training run; its self time is the
    part no wrapped call covers. Every span's self time lands in exactly
    one of SELF_FIGURES, so those sum to `trace.epoch_s`. Where a name
    also has a `.self_s` figure (evaluate, the epoch-end hook), its `.s`
    is inclusive, as is forward's train/eval split. Figures no span feeds
    (loading, residency, lattice state from metrics.csv, tracing
    overhead) stay 0 for the caller to fill.
    """
    own = self_times(spans)
    rank = sibling_rank(spans)
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    triggered = set()
    for i, s in enumerate(spans):
        name, dur, counts = s[NAME], s[END] - s[START], s[COUNTS] or {}
        if s[PARENT] < 0:
            out["harness.run.self_s"] += own[i]
            out["trace.epoch_s"] += dur
        elif name == "nn.forward":
            split = "eval_s" if has_ancestor(spans, i, "harness.evaluate") else "train_s"
            out["nn.forward." + split] += dur
            out["nn.forward.self_s"] += own[i]
            out["nn.forward.calls"] += 1
        elif name == "nn.dense_forward":
            # the i-th dense_forward inside one forward is network layer i
            layer = f"nn.dense_forward.L{min(rank[i], MAX_LAYERS - 1)}"
            out[layer + ".s"] += own[i]
            out[layer + ".gflop"] += counts.get("gflop", 0.0)
        elif name + ".s" in out:
            out[name + ".s"] += dur if name + ".self_s" in out else own[i]
            for key, value in (("self_s", own[i]), ("calls", 1), *counts.items()):
                if f"{name}.{key}" in out:
                    out[f"{name}.{key}"] += value
            if name == "lattice.reactivate" and spans[s[PARENT]][NAME] == "regularizers.on_epoch_end_dynamic":
                triggered.add(s[PARENT])
        else:
            raise ValueError(f"span {name!r} has no metric")
    out["regularizers.triggers"] = float(len(triggered))
    return {k: v if k in PER_RUN else v / epochs for k, v in out.items()}
