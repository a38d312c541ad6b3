"""End-to-end acceptance gate.

Every test here checks one headline requirement at its stated tolerance
and prints a single ``ACCEPTANCE PASS/FAIL`` line (bypassing capture) so
a log scan shows the whole scorecard at a glance. The training
comparisons share one module-scoped fixture holding all fifteen runs.

The comparisons are calibrated on the deterministic synthetic corpus,
so they use it even when CIFAR10_DIR points at the real dataset; the
ingestion test honours CIFAR10_DIR either way.
"""

import multiprocessing
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import comparison_worker
import corpusgen
from lifedrop.cli import main
from lifedrop.data import (
    FILE_BYTES,
    TEST_FILE,
    TRAIN_FILES,
    load_cifar10,
)
from lifedrop.harness import BlobSpec, RegularizerConfig, RunConfig, run
from lifedrop.lattice import init_random, step
from lifedrop.nn import backward, cross_entropy, dense_forward, forward, init_network
from lifedrop.regularizers import (
    alpha_affine,
    classical_gain,
    gaussian_gain,
    on_epoch_end_dynamic,
)

COMPARISON_EPOCHS = 30
COMPARISON_SEEDS = (0, 1, 2)
TAIL_EPOCHS = 5


def _report(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {label} — {detail}", flush=True)
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------- lattice


def _oracle_step(cells: np.ndarray) -> np.ndarray:
    """Game-of-Life step via explicit 3x3 window sums (dead border)."""
    padded = np.pad(cells.astype(np.int64), 1)
    out = np.zeros_like(cells)
    for r in range(cells.shape[0]):
        for c in range(cells.shape[1]):
            neighbors = int(padded[r : r + 3, c : c + 3].sum()) - int(cells[r, c])
            if cells[r, c]:
                out[r, c] = 1 if neighbors in (2, 3) else 0
            else:
                out[r, c] = 1 if neighbors == 3 else 0
    return out


def test_gol_engine_matches_bruteforce_oracle(capsys):
    """1,000 random lattices, 1x1 through 16x16, one step each, - 5 s."""
    rng = np.random.default_rng(42)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        rows = int(rng.integers(1, 17))
        cols = int(rng.integers(1, 17))
        cells = (rng.random((rows, cols)) < rng.random()).astype(np.uint8)
        if not np.array_equal(step(cells), _oracle_step(cells)):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 5.0
    _report(capsys, ok, "GoL engine vs brute-force oracle",
            f"1000 lattices, {mismatches} mismatches, {elapsed:.2f}s (budget 5s)")


def _embed(coords, size=16) -> np.ndarray:
    cells = np.zeros((size, size), dtype=np.uint8)
    for r, c in coords:
        cells[r, c] = 1
    return cells


def test_gol_fixed_pattern_suite(capsys):
    """Block is a fixed point, blinker has period 2, glider moves (+1,+1) in 4 steps."""
    block = _embed([(5, 5), (5, 6), (6, 5), (6, 6)])
    block_ok = np.array_equal(step(block), block)

    horizontal = _embed([(7, 6), (7, 7), (7, 8)])
    vertical = _embed([(6, 7), (7, 7), (8, 7)])
    once = step(horizontal)
    blinker_ok = np.array_equal(once, vertical) and np.array_equal(step(once), horizontal)

    glider = _embed([(5, 6), (6, 7), (7, 5), (7, 6), (7, 7)])
    state = glider
    for _ in range(4):
        state = step(state)
    glider_ok = np.array_equal(state, np.roll(glider, (1, 1), axis=(0, 1)))

    ok = block_ok and blinker_ok and glider_ok
    _report(capsys, ok, "GoL fixed patterns",
            f"block={block_ok} blinker={blinker_ok} glider={glider_ok} (all exact)")


# ------------------------------------------------------------- gradients


def _random_problem(seed: int, masked: bool):
    """One small network plus batch; None if numerically awkward.

    Rejects candidates whose hidden pre-activations sit within 1e-3 of
    the ReLU kink (central differences with eps=1e-5 would straddle it)
    and candidates with any tiny-but-nonzero analytic gradient, where a
    relative comparison measures only rounding noise.
    """
    rng = np.random.default_rng(seed)
    hidden = [int(w) for w in rng.integers(1, 9, size=int(rng.integers(1, 5)))]
    input_dim = int(rng.integers(1, 9))
    classes = int(rng.integers(2, 9))
    batch = int(rng.integers(1, 5))
    network = init_network(hidden, input_dim, classes, seed=int(rng.integers(0, 2**31)))
    x = rng.standard_normal((batch, input_dim))
    y = rng.integers(0, classes, size=batch)
    masks = None
    scales = None
    if masked:
        masks = [rng.integers(0, 2, size=w).astype(np.float64) for w in hidden]
        scales = [(1.0 - m, None) for m in masks]
    _, trace = forward(network, x, scales=scales)
    activations = trace[0]
    for layer_index, layer in enumerate(network[:-1]):
        # a kept unit's pre-activation is unscaled, so dense_forward gives it exactly
        z = dense_forward(layer, activations[layer_index])
        keep = np.ones_like(z, dtype=bool) if masks is None else np.tile(masks[layer_index] == 0, (batch, 1))
        if keep.any() and np.abs(z[keep]).min() < 1e-3:
            return None
    grads = backward(network, trace, y)
    flat = np.concatenate([np.concatenate([dw.ravel(), db.ravel()]) for dw, db in grads])
    if np.abs(flat).max() < 1e-4:
        return None
    tiny = (np.abs(flat) > 0) & (np.abs(flat) < 1e-4)
    if tiny.any():
        return None
    return network, x, y, scales, grads


def _numeric_gradients(network, x, y, scales, eps=1e-5):
    def loss_of(net):
        probs, _ = forward(net, x, scales=scales)
        return cross_entropy(probs[np.arange(y.shape[0]), y])

    grads = []
    for l, (weights, bias) in enumerate(network):
        dw = np.zeros_like(weights)
        db = np.zeros_like(bias)
        for arr, grad in ((weights, dw), (bias, db)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                samples = []
                for sign in (1.0, -1.0):
                    bumped = arr.copy()
                    bumped[idx] += sign * eps
                    layers = list(network)
                    layers[l] = (bumped, bias) if arr is weights else (weights, bumped)
                    samples.append(loss_of(layers))
                grad[idx] = (samples[0] - samples[1]) / (2 * eps)
        grads.append((dw, db))
    return grads


def test_gradients_match_finite_differences(capsys):
    """20 random nets (<=5 layers, <=8 units, batch <=4), eps=1e-5: rel err < 1e-6, < 10 s."""
    started = time.perf_counter()
    worst = 0.0
    accepted = 0
    seed = 0
    while accepted < 20:
        seed += 1
        assert seed < 500, "could not find 20 numerically clean candidates"
        problem = _random_problem(seed, masked=accepted % 2 == 1)
        if problem is None:
            continue
        network, x, y, scales, analytic = problem
        numeric = _numeric_gradients(network, x, y, scales)
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            for a, n in ((aw, nw), (ab, nb)):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
                worst = max(worst, float((np.abs(a - n) / denom).max()))
        accepted += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 10.0
    _report(capsys, ok, "analytic gradients vs central differences",
            f"20 nets (alternating masked), max rel err {worst:.2e} (bar 1e-6), {elapsed:.1f}s (budget 10s)")


# ----------------------------------------------------------- regularizers


def test_regularizer_output_statistics(capsys):
    """Classical mean +-2% at 1e5 units; Gaussian var +-1% at 1e6; alpha moments at 1e6."""
    ones = np.ones((1, 100_000))
    gain, _ = classical_gain(ones.shape, rate=0.5, rng=np.random.default_rng(11))
    classical_mean = float((ones * gain).mean())
    classical_ok = abs(classical_mean - 1.0) < 0.02

    gains, _ = gaussian_gain((1_000_000,), rate=0.5, rng=np.random.default_rng(12))
    gaussian_var = float(gains.var())
    gaussian_ok = abs(gaussian_var - 1.0) < 0.01

    z = np.random.default_rng(13).standard_normal((1, 1_000_000))
    gain, offset = alpha_affine(z.shape, rate=0.5, rng=np.random.default_rng(14))
    out = z * gain + offset
    alpha_mean = float(out.mean())
    alpha_var = float(out.var())
    alpha_ok = -0.02 <= alpha_mean <= 0.02 and 0.97 <= alpha_var <= 1.03

    ok = classical_ok and gaussian_ok and alpha_ok
    _report(capsys, ok, "regularizer output statistics",
            f"classical mean {classical_mean:.4f} (1+-0.02), gaussian var {gaussian_var:.4f} (1+-0.01), "
            f"alpha mean {alpha_mean:.4f} var {alpha_var:.4f} ([-0.02,0.02], [0.97,1.03])")


def test_monitor_trigger_semantics(capsys):
    """Stalls trigger on the 4th and 5th update in the two worked examples; never on monotone decrease."""
    def trigger_sequence(patience, losses):
        # the monitor as the board's epoch-end hook carries it: (best validation loss, epochs since it improved)
        config = RunConfig(architecture=[8], regularizer=RegularizerConfig(kind="dynamic"), output_dir="unused",
                           patience=patience, min_delta=0.0)
        board, monitor, fired = init_random(4, 8, 0.4, seed=1), (float("inf"), 0), []
        for loss in losses:
            board, monitor, triggered, _ = on_epoch_end_dynamic(board, 0, monitor, loss, config)
            fired.append(triggered)
        return fired

    flat = trigger_sequence(3, [1.0, 1.0, 1.0, 1.0])
    dip = trigger_sequence(3, [1.0, 0.5, 1.0, 1.0, 1.0])
    falling = trigger_sequence(2, [2.0 - 0.1 * k for k in range(12)])

    flat_ok = flat == [False, False, False, True]
    dip_ok = dip == [False, False, False, False, True]
    falling_ok = not any(falling)
    ok = flat_ok and dip_ok and falling_ok
    _report(capsys, ok, "overfit monitor trigger semantics",
            f"flat losses fire on update 4: {flat_ok}; dip-then-stall fires on update 5: {dip_ok}; "
            f"monotone decrease never fires: {falling_ok}")


# ---------------------------------------------------------------- training


def test_blob_sanity_training(capsys, tmp_path):
    """Blobs, single hidden layer of 8, no regularizer: >=99% train accuracy in <=50 epochs, < 30 s."""
    config = RunConfig(
        architecture=(8,),
        regularizer=RegularizerConfig(kind="none"),
        output_dir=tmp_path / "sanity",
        epochs=50,
        batch_size=512,
        learning_rate=0.5,
        seed=0,
        snapshot_epochs=(),
        blobs=BlobSpec(),
    )
    started = time.perf_counter()
    history = run(config)
    elapsed = time.perf_counter() - started
    best = max(m.train_acc for m in history)
    ok = best >= 0.99 and elapsed < 30.0
    _report(capsys, ok, "blob sanity training",
            f"best train accuracy {best:.4f} (bar 0.99) within {len(history)} epochs, {elapsed:.1f}s (budget 30s)")


@pytest.fixture(scope="module")
def comparison_corpus(cifar_dir, using_real_cifar, tmp_path_factory):
    """Directory of the synthetic corpus the comparisons are calibrated on."""
    if not using_real_cifar:
        return cifar_dir
    root = tmp_path_factory.mktemp("acceptance-corpus")
    corpusgen.generate_corpus(root)
    return root


@pytest.fixture(scope="module")
def training_comparison(comparison_corpus, tmp_path_factory):
    """Dynamic vs classical on both benchmark architectures, seeds 0-2, plus arch3 without dropout.

    arch1 runs at its stable plain-SGD setting (batch 512, lr 0.05); the
    much deeper arch3 needs a gentler rate and smaller batches to move
    at all under plain SGD (batch 128, lr 0.02). The arch3 runs with no
    dropout, at the same setting, show what plain SGD reaches on that
    net, so the arch3 line tells trainability apart from
    regularization. The runs train in
    os.cpu_count() spawned worker processes, each pinned to one BLAS
    thread (see comparison_worker), so the values do not depend on the
    core count; the long arch1 runs are submitted first.
    """
    out = tmp_path_factory.mktemp("comparison-runs")
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(os.cpu_count(), mp_context=spawn) as pool:  # a killed worker raises, not hangs
        futures = {(arch, kind, seed): pool.submit(comparison_worker.train, str(comparison_corpus),
                                                   str(out / f"{arch}-{kind}-{seed}"), arch, batch_size, lr,
                                                   kind, seed, COMPARISON_EPOCHS)
                   for arch, batch_size, lr, kinds in (("arch1", 512, 0.05, ("dynamic", "classical")),
                                                       ("arch3", 128, 0.02, ("dynamic", "classical", "none")))
                   for kind in kinds
                   for seed in COMPARISON_SEEDS}
        results = {key: future.result() for key, future in futures.items()}
    return {key: history for key, (history, _) in results.items()}, [duration for _, duration in results.values()]


def _arch1_pairs(histories):
    """(dynamic, classical) arch1 histories, one pair per seed."""
    return [(histories[("arch1", "dynamic", s)], histories[("arch1", "classical", s)]) for s in COMPARISON_SEEDS]


def test_dynamic_beats_classical_on_train_accuracy(capsys, training_comparison):
    """arch1, 30 epochs: dynamic final train accuracy >= classical + 10 points on every seed."""
    histories, _ = training_comparison
    margins = [dynamic[-1].train_acc - classical[-1].train_acc for dynamic, classical in _arch1_pairs(histories)]
    ok = all(m >= 0.10 for m in margins)
    _report(capsys, ok, "dynamic vs classical final train accuracy (arch1)",
            "margins " + "/".join(f"{m * 100:+.1f}pp" for m in margins) + " (bar +10pp on each seed)")


def test_dynamic_beats_classical_on_tail_train_accuracy(capsys, training_comparison):
    """arch1, 30 epochs: dynamic mean train accuracy over the last 5 epochs >= classical + 10 points on every seed.

    The final epoch of a chaotic trajectory moves with last-bit rounding;
    the mean over the tail moves less.
    """
    histories, _ = training_comparison
    margins = [statistics.fmean(m.train_acc for m in dynamic[-TAIL_EPOCHS:])
               - statistics.fmean(m.train_acc for m in classical[-TAIL_EPOCHS:])
               for dynamic, classical in _arch1_pairs(histories)]
    ok = all(m >= 0.10 for m in margins)
    _report(capsys, ok, f"dynamic vs classical train accuracy over the last {TAIL_EPOCHS} epochs (arch1)",
            "margins " + "/".join(f"{m * 100:+.1f}pp" for m in margins) + " (bar +10pp on each seed)")


def test_dynamic_board_drop_share(capsys, training_comparison):
    """arch1, 30 epochs: each dynamic seed's mean live_mask_fraction, the share of hidden units its board drops.

    Shown, not gated: it is what the +10 pp bars above set against
    classical dropout at rate 0.5.
    """
    histories, _ = training_comparison
    shares = [statistics.fmean(m.live_mask_fraction for m in dynamic) for dynamic, _ in _arch1_pairs(histories)]
    _report(capsys, True, "dynamic board's mean dropped share of units (arch1)",
            "/".join(f"{s:.3f}" for s in shares) + f" over {COMPARISON_EPOCHS} epochs per seed, "
            "against classical rate 0.5 (shown, not gated)")


def test_deep_net_generalization_gap(capsys, training_comparison):
    """arch3, 30 epochs: median dynamic gap <= median classical gap + 3 points.

    Each run's best train accuracy, and that of the same net trained with
    no dropout, is printed beside the gaps, not gated: a run that never
    leaves chance (0.1) has no gap to regularize.
    """
    histories, _ = training_comparison
    dynamic_gap = statistics.median(histories[("arch3", "dynamic", s)][-1].gap for s in COMPARISON_SEEDS)
    classical_gap = statistics.median(histories[("arch3", "classical", s)][-1].gap for s in COMPARISON_SEEDS)
    best = {kind: "/".join(f"{max(m.train_acc for m in histories[('arch3', kind, s)]):.4f}" for s in COMPARISON_SEEDS)
            for kind in ("dynamic", "classical", "none")}
    ok = dynamic_gap <= classical_gap + 0.03
    _report(capsys, ok, "dynamic vs classical generalization gap (arch3)",
            f"median gaps: dynamic {dynamic_gap * 100:+.2f}pp vs classical {classical_gap * 100:+.2f}pp "
            f"(allowance +3pp); best train accuracy per seed: dynamic {best['dynamic']}, "
            f"classical {best['classical']}, no dropout {best['none']} (shown, not gated)")


def test_comparison_runs_fit_wall_clock_budget(capsys, training_comparison):
    """Each comparison run finishes in under 15 minutes."""
    _, durations = training_comparison
    slowest = max(durations)
    ok = slowest < 900.0
    _report(capsys, ok, "training run wall-clock budget",
            f"slowest of {len(durations)} runs: {slowest:.0f}s (budget 900s)")


# ------------------------------------------------------------ determinism


def test_train_invocation_is_deterministic(capsys, tmp_path):
    """The same train flags twice produce byte-identical metrics and snapshots."""
    def invoke(out_dir: Path) -> None:
        argv = ["train", "--arch", "custom:16,16", "--reg", "dynamic", "--rate", "0.5",
                "--epochs", "6", "--batch", "64", "--lr", "0.05", "--seed", "3",
                "--synthetic", "--blob-classes", "4", "--blob-dim", "16",
                "--blob-per-class", "120", "--snapshot-epochs", "1,3,5",
                "--out", str(out_dir)]
        assert main(argv) == 0

    first, second = tmp_path / "first", tmp_path / "second"
    invoke(first)
    invoke(second)

    names = sorted(p.name for p in first.iterdir())
    ok = names == sorted(p.name for p in second.iterdir())
    compared = []
    for name in ("metrics.csv", "lattice_epoch_1.pbm", "lattice_epoch_3.pbm", "lattice_epoch_5.pbm"):
        same = (first / name).read_bytes() == (second / name).read_bytes()
        compared.append(f"{name}:{'=' if same else '!='}")
        ok = ok and same
    _report(capsys, ok, "training determinism",
            "repeated invocation, " + " ".join(compared))


# -------------------------------------------------------------- ingestion


def test_cifar_ingestion_and_truncation_failure(capsys, cifar_dir, tmp_path):
    """Counts 50,000/10,000, per-class 5,000/1,000, values in [0,1], truncated file hard-fails."""
    train, val = load_cifar10(cifar_dir)
    counts_ok = train.n == 50_000 and val.n == 10_000
    per_class_ok = (np.bincount(train.labels, minlength=10).tolist() == [5_000] * 10
                    and np.bincount(val.labels, minlength=10).tolist() == [1_000] * 10)
    train_x, val_x = train.rows(slice(None)), val.rows(slice(None))
    range_ok = (float(train_x.min()) >= 0.0 and float(train_x.max()) <= 1.0
                and float(val_x.min()) >= 0.0 and float(val_x.max()) <= 1.0)

    broken = tmp_path / "truncated-corpus"
    broken.mkdir()
    for name in list(TRAIN_FILES) + [TEST_FILE]:
        if name == TRAIN_FILES[2]:
            broken.joinpath(name).write_bytes(Path(cifar_dir, name).read_bytes()[: FILE_BYTES - 1])
        else:
            broken.joinpath(name).symlink_to(Path(cifar_dir, name))
    try:
        load_cifar10(broken)
        truncation_ok = False
    except ValueError:
        truncation_ok = True

    ok = counts_ok and per_class_ok and range_ok and truncation_ok
    _report(capsys, ok, "CIFAR-10 ingestion",
            f"counts={counts_ok} per-class={per_class_ok} range=[{train_x.min():.3f},"
            f"{train_x.max():.3f}] truncation-fails={truncation_ok}")
