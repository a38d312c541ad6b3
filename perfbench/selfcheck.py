"""Self-check of the benchmark's own arithmetic.

On a hand-built span tree whose times are exact binary fractions, self
times, the train/eval split and the per-layer attribution must come out
exact; on known shapes, the counts (GFLOP, noise draws, gather MiB,
resident MiB, bytes written) must come out exact. run.py calls `check()`
before every measurement; `python3 perfbench/selfcheck.py` runs it alone.
"""

from __future__ import annotations

import numpy as np

import spans as sp


def _tree():
    """run [0, 16): batches, forward(L0, L1), sgd, evaluate(forward(L0, L1)), hook(reactivate, step)."""
    rows = [  # name, parent, start, end, counts
        ("harness.run", -1, 0.0, 16.0, None),
        ("data.batches", 0, 0.5, 1.0, {"count": 1, "gather_mb": 2.0}),
        ("nn.forward", 0, 1.0, 4.0, None),
        ("nn.dense_forward", 2, 1.25, 2.25, {"gflop": 0.5}),
        ("nn.dense_forward", 2, 2.5, 3.0, {"gflop": 0.25}),
        ("nn.sgd_step", 0, 4.0, 5.0, {"mb_written": 1.5}),
        ("harness.evaluate", 0, 6.0, 10.0, {"rows": 8}),
        ("nn.forward", 6, 6.5, 9.5, None),
        ("nn.dense_forward", 7, 6.75, 7.75, {"gflop": 0.5}),
        ("nn.dense_forward", 7, 8.0, 9.0, {"gflop": 0.25}),
        ("regularizers.on_epoch_end_dynamic", 0, 11.0, 14.0, None),
        ("lattice.reactivate", 10, 11.5, 12.0, None),
        ("lattice.step", 10, 12.0, 13.0, None),
        ("data.batches", 0, 15.0, 15.125, None),  # the next() that ends the epoch
    ]
    return [list(r) for r in rows]


def _expect(got: dict, want: dict, label: str) -> list[str]:
    return [f"{label}: {k} = {got[k]!r}, expected {v!r}" for k, v in want.items() if got[k] != v]


def check_spans() -> list[str]:
    spans = _tree()
    errors = []
    own = sp.self_times(spans)
    want_own = [16.0 - 0.5 - 3.0 - 1.0 - 4.0 - 3.0 - 0.125, 0.5, 1.5, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0,
                1.5, 0.5, 1.0, 0.125]
    if own != want_own:
        errors.append(f"self times {own}, expected {want_own}")
    if sp.sibling_rank(spans) != [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1]:
        errors.append(f"sibling ranks {sp.sibling_rank(spans)}")
    got = sp.fold(spans, epochs=2)
    errors += _expect(got, {
        "harness.run.self_s": 4.375 / 2, "trace.epoch_s": 8.0,
        "data.batches.s": 0.3125, "data.batches.count": 0.5, "data.batches.gather_mb": 1.0,
        "nn.forward.train_s": 1.5, "nn.forward.eval_s": 1.5, "nn.forward.self_s": 1.25,
        "nn.forward.calls": 1.0,
        "nn.dense_forward.L0.s": 1.0, "nn.dense_forward.L0.gflop": 0.5,
        "nn.dense_forward.L1.s": 0.75, "nn.dense_forward.L1.gflop": 0.25,
        "nn.dense_forward.L2.s": 0.0,
        "nn.sgd_step.s": 0.5, "nn.sgd_step.mb_written": 0.75,
        "harness.evaluate.s": 2.0, "harness.evaluate.self_s": 0.5, "harness.evaluate.rows": 4.0,
        "regularizers.on_epoch_end_dynamic.s": 1.5, "regularizers.on_epoch_end_dynamic.self_s": 0.75,
        "regularizers.triggers": 1.0, "lattice.reactivate.calls": 1.0,
        "lattice.reactivate.s": 0.25, "lattice.step.s": 0.5,
        "regularizers.noise.s": 0.0, "seeding.derive_seed.calls": 0.0,
    }, "fold")
    total = sum(got[k] for k in sp.SELF_FIGURES)
    if total != got["trace.epoch_s"]:
        errors.append(f"self figures sum to {total!r}, traced epoch is {got['trace.epoch_s']!r}")
    return errors


def check_counts() -> list[str]:
    errors = []
    a = np.zeros((512, 3072))
    z = np.zeros((512, 512))
    errors += _expect(sp.dense_counts((None, a), {}, z), {"gflop": 1.610612736}, "dense 512x3072x512")
    grads = [(np.zeros((512, 3072)), np.zeros(512)), (np.zeros((10, 512)), np.zeros(10))]
    y = np.zeros((128, 10))
    # 2*128*(512*3072) for L0's dW; 2*2*128*(10*512) for L1's dW and da
    errors += _expect(sp.backward_counts((None, None, y), {}, grads), {"gflop": 0.405274624}, "backward")
    errors += _expect(sp.sgd_counts((None, grads), {}, None),
                      {"mb_written": (512 * 3073 + 10 * 513) * 8 / 2**20}, "sgd bytes")
    errors += _expect(sp.noise_counts(None, {}, np.ones((128, 64))), {"draws": 8192}, "classical draws")
    errors += _expect(sp.noise_counts(None, {}, (np.ones((128, 64)), np.ones((128, 64)))),
                      {"draws": 8192}, "alpha draws")
    batch = (np.zeros((128, 3072)), np.zeros((128, 10)))
    errors += _expect(sp.gather_counts(batch), {"count": 1, "gather_mb": 3.0 + 10 / 1024}, "gather")

    class Held:
        features = np.zeros((1024, 3072))
        labels = np.zeros(1024, dtype=np.int64)

    got = sp.resident_mb(Held, Held)
    if got != 2 * (24.0 + 1 / 128):
        errors.append(f"resident MiB {got!r}, expected {2 * (24.0 + 1 / 128)!r}")
    errors += _expect(sp.evaluate_counts((None, Held), {}, None), {"rows": 1024}, "evaluate rows")
    return errors


def check() -> list[str]:
    """Every mismatch found, as readable lines; empty when all is exact."""
    return check_spans() + check_counts()


if __name__ == "__main__":
    import sys

    problems = check()
    for line in problems:
        print(line, file=sys.stderr)
    print("selfcheck:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
