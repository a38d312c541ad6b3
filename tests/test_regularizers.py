"""Dropout-strategy and epoch-end-hook tests, the patience monitor included."""

import math

import numpy as np
import pytest

from lifedrop import harness, nn
from lifedrop.data import batches, make_blobs
from lifedrop.harness import BlobSpec, RegularizerConfig, RunConfig, derive_seed, evaluate
from lifedrop.lattice import init_random, reactivate, step
from lifedrop.regularizers import ALPHA_PRIME, alpha_affine, classical_gain, gaussian_gain, on_epoch_end_dynamic


def hook_config(patience, min_delta, **reg):
    """A dynamic RunConfig for the epoch-end hook, which reads patience, min_delta and the regularizer."""
    reg = RegularizerConfig(**{"kind": "dynamic", "lattice_density": 0.5, "reactivation_fraction": 0.1,
                               "seed": 5, **reg})
    return RunConfig(architecture=[8], regularizer=reg, output_dir="unused", patience=patience,
                     min_delta=min_delta)


class TestRegularizerConfig:
    def test_accepts_every_kind(self):
        for kind in ("none", "classical", "gaussian", "alpha", "dynamic"):
            RegularizerConfig(kind=kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RegularizerConfig(kind="bernoulli")

    def test_rate_must_be_below_one(self):
        with pytest.raises(ValueError):
            RegularizerConfig(kind="classical", rate=1.0)

    def test_irrelevant_fields_still_range_checked(self):
        # kind "none" ignores rate, but a nonsensical value is caught anyway
        with pytest.raises(ValueError):
            RegularizerConfig(kind="none", rate=-0.1)
        with pytest.raises(ValueError):
            RegularizerConfig(kind="classical", lattice_density=1.5)
        with pytest.raises(ValueError):
            RegularizerConfig(kind="none", reactivation_fraction=0.0)

    @pytest.mark.parametrize("bad, message", [
        ({"rate": "0.5"}, "rate must be a real number"), ({"rate": None}, "rate must be a real number"),
        ({"lattice_density": "0.5"}, "lattice_density must be a real number"),
        ({"reactivation_fraction": "0.1"}, "reactivation_fraction must be a real number"),
        ({"kind": None}, "kind must be a string"),
        ({"seed": True}, "seed must be an integer"), ({"rate": True}, "rate must be a real number"),
    ])
    def test_setting_of_another_type_rejected(self, bad, message):
        # the type is checked before a range check compares the value
        with pytest.raises(ValueError, match=message):
            RegularizerConfig(**{"kind": "classical", **bad})

    @pytest.mark.parametrize("kind", ["none", "dynamic"])
    def test_seed_must_be_an_integer(self, kind):
        with pytest.raises(ValueError, match="seed must be an integer"):
            RegularizerConfig(kind=kind, seed=2.5)
        assert RegularizerConfig(kind=kind, seed=np.int64(3)).seed == 3  # numpy integers pass


class TestMonitor:
    """The patience monitor as the hook carries it: (best validation loss, epochs since it improved)."""

    def feed(self, losses, patience, min_delta=0.0):
        """The hook's trigger per loss, and the final monitor, from (inf, 0) on a 4x8 board."""
        config = hook_config(patience=patience, min_delta=min_delta)
        board, monitor, fired = init_random(4, 8, 0.4, seed=1), (math.inf, 0), []
        for loss in losses:
            board, monitor, triggered, _ = on_epoch_end_dynamic(board, 0, monitor, loss, config)
            fired.append(triggered)
        return fired, monitor

    def test_defaults_and_validation(self):
        # the defaults live on RunConfig; its rejections are in test_harness's bad-config table
        assert RunConfig.patience == 5 and RunConfig.min_delta == 1e-3

    def test_never_triggers_on_monotone_decrease(self):
        fired, monitor = self.feed([1.0, 0.9, 0.8, 0.7, 0.6, 0.5], patience=2)
        assert not any(fired)
        assert monitor == (0.5, 0)

    def test_flat_losses_trigger_on_fourth_update(self):
        fired, _ = self.feed([1.0, 1.0, 1.0, 1.0], patience=3)
        assert fired == [False, False, False, True]

    def test_reset_then_stall_triggers_on_fifth_update(self):
        fired, _ = self.feed([1.0, 0.5, 1.0, 1.0, 1.0], patience=3)
        assert fired == [False, False, False, False, True]

    def test_rearms_after_trigger(self):
        fired, monitor = self.feed([1.0, 1.0, 1.0, 1.0, 1.0], patience=2)
        # first update improves on +inf; then the counter fires every
        # `patience` stagnant epochs, keeping the best loss
        assert fired == [False, False, True, False, True]
        assert monitor == (1.0, 0)

    def test_improvement_must_beat_min_delta(self):
        fired, monitor = self.feed([1.0, 0.95], patience=1, min_delta=0.1)  # 0.95 improves, but not by > 0.1
        assert fired == [False, True]
        assert monitor == (1.0, 0)


class TestDynamicMask:
    """The board as training applies it: row l of the lattice drops layer l's units, i.e. the gain 1 - mask."""

    def scales(self, board):
        return [(1.0 - row, None) for row in board]

    def test_extinct_lattice_masks_nothing(self):
        net = nn.init_network([6, 6, 6], 5, 3, seed=1)
        x = np.random.default_rng(0).normal(size=(4, 5))
        plain, _ = nn.forward(net, x)
        masked, _ = nn.forward(net, x, scales=self.scales(np.zeros((3, 6), dtype=np.uint8)))
        assert np.array_equal(plain, masked)

    def test_saturated_lattice_masks_everything(self):
        net = nn.init_network([4, 4], 5, 3, seed=2)
        x = np.random.default_rng(1).normal(size=(3, 5))
        _, (activations, _) = nn.forward(net, x, scales=self.scales(np.ones((2, 4), dtype=np.uint8)))
        for act in activations[1:-1]:
            assert np.array_equal(act, np.zeros((3, 4)))

    def test_per_layer_read_off(self):
        cells = np.zeros((3, 4), dtype=np.uint8)
        cells[1, 0] = 1
        cells[2] = 1
        net = nn.init_network([4, 4, 4], 5, 3, seed=3)
        x = np.random.default_rng(2).normal(size=(2, 5))
        _, (activations, gains) = nn.forward(net, x, scales=self.scales(cells))
        assert [g.tolist() for g in gains] == [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 0, 0]]
        for l, row in enumerate(cells):
            z = nn.dense_forward(net[l], activations[l])
            assert np.array_equal(activations[l + 1][:, row == 1], np.zeros((2, int(row.sum()))))
            assert np.array_equal(activations[l + 1][:, row == 0], np.maximum(z[:, row == 0], 0.0))

    def test_evaluation_mode_is_unmasked(self, tmp_path, monkeypatch):
        # A one-epoch dynamic run: the losses it records must be those of the
        # plain, unscaled forward pass, which differs from the masked one.
        evaluated = []

        def spy(network, dataset, helper):
            # run updates its arrays in place, so keep a copy of what was evaluated
            evaluated.append(([(w.copy(), b.copy()) for w, b in network], dataset))
            return evaluate(network, dataset, helper)

        monkeypatch.setattr(harness, "evaluate", spy)
        blobs = BlobSpec(per_class=60, classes=3, dim=8, separation=8.0)
        reg = RegularizerConfig(kind="dynamic", lattice_density=0.5, seed=5)
        config = RunConfig(architecture=[8], regularizer=reg, output_dir=tmp_path, epochs=1,
                           batch_size=64, learning_rate=0.2, seed=5, snapshot_epochs=(), blobs=blobs)
        history = harness.run(config)
        (network, train), (_, val) = evaluated
        board = init_random(1, 8, 0.5, seed=derive_seed(config.seed, "lattice"))
        assert board.sum() > 0
        for dataset, loss in ((train, history[0].train_loss), (val, history[0].val_loss)):
            true_class = (np.arange(dataset.n), dataset.labels)
            plain, _ = nn.forward(network, dataset.features)
            assert abs(nn.cross_entropy(plain[true_class]) - loss) < 1e-12
            masked, _ = nn.forward(network, dataset.features, scales=self.scales(board))
            assert abs(nn.cross_entropy(masked[true_class]) - loss) > 1e-6

    @pytest.mark.parametrize("cells", [
        [[1, 0, 0, 1, 0, 1], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0]],
        [[1, 1, 1, 1, 1, 1], [0, 1, 0, 0, 1, 0], [1, 0, 0, 0, 0, 0]],
        [[0] * 6] * 3,
    ], ids=["mixed", "row-all-alive", "extinct"])
    def test_compact_epoch_equals_dense_masked_epoch(self, tmp_path, monkeypatch, cells):
        # run trains a dynamic epoch on the kept units only; the weights it then
        # evaluates must be those of the full network trained with gain 1 - mask.
        cells = np.array(cells, dtype=np.uint8)
        evaluated = []

        def spy(network, dataset, helper):
            evaluated.append([(w.copy(), b.copy()) for w, b in network])
            return evaluate(network, dataset, helper)

        monkeypatch.setattr(harness, "init_random", lambda *args, **kwargs: cells)
        monkeypatch.setattr(harness, "evaluate", spy)
        train, val = make_blobs(30, 3, 8, 3.0, seed=1), make_blobs(10, 3, 8, 3.0, seed=2)
        reg = RegularizerConfig(kind="dynamic", seed=5)
        config = RunConfig(architecture=[6, 6, 6], regularizer=reg, output_dir=tmp_path, epochs=1,
                           batch_size=16, learning_rate=0.2, seed=5, snapshot_epochs=())
        harness.run(config, data=(train, val))

        network = nn.init_network(harness.resolve_architecture(config.architecture), 8, 3,
                                  seed=derive_seed(config.seed, "init"))
        initial = [(w.copy(), b.copy()) for w, b in network]
        for x, y in batches(train, 16, derive_seed(derive_seed(config.seed, "batches"), "shuffle", 1)):
            _, trace = nn.forward(network, x, scales=self.scales(cells))
            nn.sgd_step(network, nn.backward(network, trace, y), config.learning_rate)
        for (w, b), (w_run, b_run) in zip(network, evaluated[0]):
            bound = 1e-12 * np.abs(w).max()
            assert np.abs(w_run - w).max() <= bound and np.abs(b_run - b).max() <= bound
        # run moves the kept units to the front and back again: every unit the board
        # drops is back in its place with its row of W, its bias and its column of the
        # next layer's W untouched, byte for byte
        for l, dropped in enumerate(cells == 1):
            (w0, b0), (w0_next, _) = initial[l], initial[l + 1]
            (w_run, b_run), (w_run_next, _) = evaluated[0][l], evaluated[0][l + 1]
            assert w_run[dropped].tobytes() == w0[dropped].tobytes()
            assert b_run[dropped].tobytes() == b0[dropped].tobytes()
            assert w_run_next[:, dropped].tobytes() == w0_next[:, dropped].tobytes()


class TestClassical:
    def test_rate_zero_is_identity(self):
        z = np.random.default_rng(0).normal(size=(3, 5))
        gain, offset = classical_gain(z.shape, 0.0, np.random.default_rng(1))
        assert offset is None and np.array_equal(z * gain, z)

    def test_inverted_scaling_keeps_the_mean(self):
        out, _ = classical_gain((1, 100_000), 0.5, np.random.default_rng(7))
        assert 0.98 <= out.mean() <= 1.02

    def test_survivors_scaled_exactly(self):
        out, _ = classical_gain((1, 1000), 0.2, np.random.default_rng(3))
        assert set(np.round(np.unique(out), 12)) == {0.0, 1.25}

    def test_drop_fraction_near_rate(self):
        out, _ = classical_gain((1, 100_000), 0.3, np.random.default_rng(9))
        assert abs((out == 0).mean() - 0.3) < 0.01

    def test_deterministic_per_seed(self):
        a, _ = classical_gain((4, 6), 0.5, np.random.default_rng(42))
        b, _ = classical_gain((4, 6), 0.5, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestGaussian:
    def test_rate_zero_is_identity(self):
        z = np.random.default_rng(3).normal(size=(2, 8))
        gain, offset = gaussian_gain(z.shape, 0.0, np.random.default_rng(1))
        assert offset is None and np.array_equal(z * gain, z)

    def test_multiplier_statistics(self):
        gains, _ = gaussian_gain((1_000_000,), 0.5, np.random.default_rng(11))
        assert 0.99 <= gains.var() <= 1.01  # rate/(1-rate) = 1
        assert abs(gains.mean() - 1.0) < 0.005

    def test_variance_tracks_rate(self):
        gains, _ = gaussian_gain((1_000_000,), 0.2, np.random.default_rng(12))
        assert abs(gains.var() - 0.25) < 0.005


class TestAlpha:
    def test_rate_zero_is_identity(self):
        z = np.random.default_rng(5).normal(size=(2, 8))
        gain, offset = alpha_affine(z.shape, 0.0, np.random.default_rng(1))
        assert np.array_equal(z * gain + offset, z)
        gain, offset = alpha_affine((3,), 0.0, np.random.default_rng(1))
        assert np.array_equal(gain, np.ones(3)) and np.array_equal(offset, np.zeros(3))
        assert not np.signbit(offset).any()

    def test_preserves_standard_normal_statistics(self):
        z = np.random.default_rng(13).standard_normal(1_000_000)
        gain, offset = alpha_affine(z.shape, 0.5, np.random.default_rng(14))
        out = z * gain + offset
        assert -0.02 <= out.mean() <= 0.02
        assert 0.97 <= out.var() <= 1.03

    def test_dropped_units_pinned_to_saturation_value(self):
        p = 0.5
        a = (p + ALPHA_PRIME**2 * p * (1 - p)) ** -0.5
        b = -a * (1 - p) * ALPHA_PRIME
        gain, offset = alpha_affine((10_000,), 0.5, np.random.default_rng(15))
        dropped = gain == 0.0
        assert 0.3 < dropped.mean() < 0.7
        # where a unit is dropped the affine output is the constant a*alpha'+b
        assert np.allclose(offset[dropped], a * ALPHA_PRIME + b, atol=1e-15)
        assert np.allclose(offset[~dropped], b, atol=1e-15)
        assert np.allclose(gain[~dropped], a, atol=1e-15)

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_offset_equals_the_select_form_bitwise(self, rate):
        # b + (a * alpha') * ~keep adds a signed zero to b where a unit is kept
        p = 1.0 - rate
        a = (p + ALPHA_PRIME**2 * p * (1 - p)) ** -0.5
        b = -a * (1 - p) * ALPHA_PRIME
        for seed, shape in ((16, (64, 33)), (17, (5,)), (18, (128, 64))):
            keep = np.random.default_rng(seed).random(shape) < p
            gain, offset = alpha_affine(shape, rate, np.random.default_rng(seed))
            assert gain.tobytes() == (a * keep).tobytes()
            assert offset.tobytes() == np.where(keep, b, a * ALPHA_PRIME + b).tobytes()


class TestEpochEnd:
    def config(self, patience=1, min_delta=0.0, **reg):
        return hook_config(patience=patience, min_delta=min_delta, **reg)

    def test_no_trigger_is_a_plain_step(self):
        lat = init_random(4, 8, 0.4, seed=1)
        out, _, triggered, revived = on_epoch_end_dynamic(lat, 0, (math.inf, 0), 1.0, self.config(patience=3))
        assert not triggered and revived == 0
        assert np.array_equal(out, step(lat))

    def test_trigger_on_extinct_lattice_revives_quota(self):
        # ceil(0.1 * 640) = 64 cells come back, then one generation runs
        lat = np.zeros((10, 64), dtype=np.uint8)
        monitor = (0.5, 0)
        out, _, triggered, revived = on_epoch_end_dynamic(lat, 0, monitor, 0.9, self.config())
        assert triggered and revived == 64

    def test_seed_draws_the_revival(self):
        lat = np.zeros((10, 64), dtype=np.uint8)
        monitor = (0.5, 0)
        out, _, _, _ = on_epoch_end_dynamic(lat, 3, monitor, 0.9, self.config())
        assert np.array_equal(out, step(reactivate(lat, 64, 3)))
        assert not np.array_equal(out, step(reactivate(lat, 64, 4)))

    def test_generation_keys_the_reactivation_seed(self, tmp_path, monkeypatch):
        # run hands the hook of epoch e a seed keyed on the regularizer seed and the board's generation, e - 1
        seeds, hook = [], harness.on_epoch_end_dynamic
        monkeypatch.setattr(harness, "on_epoch_end_dynamic",
                            lambda board, seed, *rest: seeds.append(seed) or hook(board, seed, *rest))
        reg = RegularizerConfig(kind="dynamic", lattice_density=0.5, reactivation_fraction=0.1, seed=9)
        config = RunConfig(architecture=[8], regularizer=reg, output_dir=tmp_path, epochs=3,
                           batch_size=64, learning_rate=0.2, seed=5, snapshot_epochs=(),
                           blobs=BlobSpec(per_class=20, classes=3, dim=8))
        harness.run(config)
        assert seeds == [derive_seed(9, "reactivate", generation) for generation in range(3)]

    def test_trigger_on_saturated_lattice_revives_nothing(self):
        lat = np.ones((4, 4), dtype=np.uint8)
        monitor = (0.5, 0)
        out, _, triggered, revived = on_epoch_end_dynamic(lat, 0, monitor, 0.9, self.config())
        assert triggered and revived == 0
        assert np.array_equal(out, step(lat))

    def test_revived_cells_join_the_next_generation(self):
        # reactivation happens before the step: the step sees the revived
        # cells, so the outcome differs from stepping the untouched lattice
        lat = np.zeros((10, 64), dtype=np.uint8)
        monitor = (0.5, 0)
        out, _, _, _ = on_epoch_end_dynamic(lat, 0, monitor, 0.9,
                                            self.config(reactivation_fraction=1.0))
        assert not np.array_equal(out, step(lat))

    @pytest.mark.parametrize("best_val_loss", [0.1, 2.0], ids=["triggered", "not-triggered"])
    def test_board_not_mutated(self, best_val_loss):
        lat = init_random(6, 10, 0.5, seed=2)
        before = lat.copy()
        monitor = (best_val_loss, 0)
        out, _, triggered, _ = on_epoch_end_dynamic(lat, 4, monitor, 0.9, self.config())
        assert triggered == (best_val_loss < 0.9)
        assert np.array_equal(lat, before)
        assert out is not lat

    def test_deterministic(self):
        lat = init_random(6, 10, 0.5, seed=2)
        monitor = (0.1, 0)
        a = on_epoch_end_dynamic(lat, 2, monitor, 0.9, self.config())
        b = on_epoch_end_dynamic(lat, 2, monitor, 0.9, self.config())
        assert np.array_equal(a[0], b[0]) and a[1] == b[1] and a[2:] == b[2:]

    def test_monitor_pair_is_threaded(self):
        lat = init_random(4, 6, 0.5, seed=3)
        _, monitor, triggered, _ = on_epoch_end_dynamic(lat, 0, (math.inf, 0), 1.3, self.config(patience=2))
        assert monitor == (1.3, 0) and not triggered
        _, monitor, triggered, _ = on_epoch_end_dynamic(lat, 0, monitor, 1.3, self.config(patience=2))
        assert monitor == (1.3, 1) and not triggered
