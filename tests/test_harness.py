"""Experiment-driver tests: run loop, metrics files, manifests, CLI."""

import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lifedrop import harness, nn
from lifedrop.cli import main
from lifedrop.data import Dataset, make_blobs
from lifedrop.harness import (ARCH_PRESETS, BlobSpec, EpochMetrics, RegularizerConfig, RunConfig,
                              compare, config_from_manifest, derive_seed, evaluate, read_metrics,
                              resolve_architecture, run, write_manifest, write_metrics)
from lifedrop.lattice import init_random, reactivate, step

BLOBS = BlobSpec(per_class=60, classes=3, dim=8, separation=8.0)


def blob_config(tmp_path, reg_kind="none", **kw):
    reg_fields = {k: kw.pop(k) for k in ("rate", "lattice_density", "reactivation_fraction")
                  if k in kw}
    defaults = dict(architecture=[8], output_dir=tmp_path / "run", epochs=3, batch_size=64,
                    learning_rate=0.2, seed=5, snapshot_epochs=(1, 2), blobs=BLOBS)
    defaults.update(kw)
    # int(): a float run seed is for RunConfig to refuse, not the regularizer
    reg = RegularizerConfig(kind=reg_kind, seed=int(defaults["seed"]), **reg_fields)
    return RunConfig(regularizer=reg, **defaults)


class TestResolveArchitecture:
    def test_presets(self):
        assert resolve_architecture("arch1") == (512, 512, 512)
        assert resolve_architecture("arch2") == (128,) * 10
        assert resolve_architecture("arch3") == (64,) * 10
        assert ARCH_PRESETS["arch1"] == (512, 512, 512)

    def test_custom_string(self):
        assert resolve_architecture("custom:24,16") == (24, 16)

    def test_explicit_widths(self):
        assert resolve_architecture([32, 32]) == (32, 32)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="arch9"):
            resolve_architecture("arch9")

    def test_garbage_custom_rejected(self):
        with pytest.raises(ValueError):
            resolve_architecture("custom:a,b")

    def test_non_positive_width_rejected(self):
        with pytest.raises(ValueError):
            resolve_architecture([8, 0])

    @pytest.mark.parametrize("widths", [(8.7, 8.2), [8, 8.0], 8])
    def test_non_integer_widths_rejected(self, widths):
        with pytest.raises(ValueError, match="architecture widths must be integers"):
            resolve_architecture(widths)


class TestEvaluate:
    def uniform_network(self, dim, classes):
        return [(np.zeros((4, dim)), np.zeros(4)), (np.zeros((classes, 4)), np.zeros(classes))]

    def balanced_dataset(self, n, dim, classes):
        rng = np.random.default_rng(0)
        return Dataset(rng.random((n, dim)), np.arange(n) % classes, name="bal",
                       class_count=classes)

    def test_uniform_predictor_closed_form(self):
        # zero weights -> uniform probabilities; argmax ties resolve to class
        # 0, which holds a tenth of a balanced dataset
        net = self.uniform_network(6, 10)
        data = self.balanced_dataset(100, 6, 10)
        loss, acc = evaluate(net, data)
        assert abs(loss - math.log(10)) < 1e-9
        assert acc == 0.1

    def test_confident_correct_single_sample(self):
        net = self.uniform_network(6, 10)
        net[1] = (np.zeros((10, 4)), np.r_[50.0, np.zeros(9)])
        data = Dataset(np.random.default_rng(1).random((1, 6)), np.array([0]), name="one",
                       class_count=10)
        loss, acc = evaluate(net, data)
        assert loss < 1e-9 and acc == 1.0

    def test_deterministic(self):
        net = nn.init_network([8], 8, 3, seed=1)
        data = make_blobs(30, 3, 8, 4.0, seed=2)
        assert evaluate(net, data) == evaluate(net, data)

    def test_chunking_does_not_change_results(self, monkeypatch):
        net = nn.init_network([8], 8, 3, seed=3)
        data = make_blobs(19, 3, 8, 4.0, seed=4)
        # stored bytes: 57 rows make 9 chunks of 7, an odd count whose last chunk is 1 row
        stored = Dataset(np.round(data.features * 255).astype(np.uint8), data.labels,
                         name="bytes", class_count=3)
        widened = Dataset(stored.features.astype(np.float64) / 255.0, data.labels,
                          name="floats", class_count=3)
        assert stored.n % 14 == 1

        def serial(ds):  # one forward pass over every row, on the calling thread
            probs = nn.forward(net, ds.rows(slice(None)))[0]
            hits = int((probs.argmax(axis=1) == ds.labels).sum())
            return nn.cross_entropy(probs[np.arange(ds.n), ds.labels]), hits / ds.n

        datasets = (data, stored, widened)
        results = {}
        for chunk in (7, 4096):  # 4,096 rows: one chunk, and the helper thread takes none
            monkeypatch.setattr(harness, "_CHUNK", chunk)
            results[chunk] = [evaluate(net, ds) for ds in datasets]
            assert results[chunk][1] == results[chunk][2]
        assert results[7] == results[4096] == [serial(ds) for ds in datasets]

    def test_the_threads_lose_no_update_when_they_switch_often(self, monkeypatch):
        net = nn.init_network([8], 8, 3, seed=3)
        data = make_blobs(19, 3, 8, 4.0, seed=4)
        expected = evaluate(net, data)  # 57 rows: one chunk, all on the calling thread
        monkeypatch.setattr(harness, "_CHUNK", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # a count the threads shared would lose an update now and then
        try:
            results = {evaluate(net, data) for _ in range(200)}
        finally:
            sys.setswitchinterval(interval)
        assert results == {expected}

    def test_a_helper_thread_error_is_raised_after_the_helper_ends(self, monkeypatch):
        net = nn.init_network([8], 8, 3, seed=1)
        data = make_blobs(10, 3, 8, 4.0, seed=2)
        monkeypatch.setattr(harness, "_CHUNK", 8)  # 30 rows: the helper takes chunks 1 and 3
        forward = nn.forward

        def failing(network, batch, scales=None):
            if np.array_equal(batch, data.features[8:16]):
                raise RuntimeError("chunk 1 failed")
            return forward(network, batch, scales)

        monkeypatch.setattr(nn, "forward", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            evaluate(net, data)
        assert threading.active_count() == threads

    def test_stored_bytes_are_scaled_through_256_rows(self):
        # 2,000 rows of 3,072 bytes would take 47 MiB as float64; evaluation's two
        # threads hold one 128-row float64 chunk each (6 MiB together) and their small
        # activations at a time, and tracemalloc counts both threads' allocations
        n, dim = 2000, 3072
        data = Dataset(np.random.default_rng(5).integers(0, 256, size=(n, dim), dtype=np.uint8),
                       np.arange(n) % 10, name="bytes", class_count=10)
        net = nn.init_network([16], dim, 10, seed=6)
        tracemalloc.start()
        try:
            evaluate(net, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * dim * 8 + (1 << 20)

    def test_dynamic_epoch_trains_the_network_in_place(self, tmp_path, monkeypatch):
        # An all-dead board keeps every unit, so a copy of the kept units would be
        # a second network. The peak above the datasets, read when evaluation
        # starts, holds one network, two batches (the one training and the next,
        # prepared on the helper thread), dW0 and one batch's activations.
        n, dim, widths, classes, batch = 128, 4096, (128, 128), 10, 64
        rng = np.random.default_rng(7)
        train = Dataset(rng.random((n, dim)), np.arange(n) % classes, name="train", class_count=classes)
        val = Dataset(rng.random((16, dim)), np.arange(16) % classes, name="val", class_count=classes)
        peaks = []

        def spy(network, dataset):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return evaluate(network, dataset)

        monkeypatch.setattr(harness, "init_random", lambda rows, cols, *args, **kw: np.zeros((rows, cols), np.uint8))
        monkeypatch.setattr(harness, "evaluate", spy)
        cfg = RunConfig(architecture=widths, regularizer=RegularizerConfig(kind="dynamic", seed=1),
                        output_dir=tmp_path, epochs=1, batch_size=batch, learning_rate=0.01, seed=1,
                        snapshot_epochs=())
        tracemalloc.start()
        try:
            run(cfg, data=(train, val))
        finally:
            tracemalloc.stop()
        dims = (dim, *widths, classes)
        network = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:])) * 8
        activations = batch * sum(dims[1:]) * 8
        assert peaks[0] < network + 2 * batch * dim * 8 + widths[0] * dim * 8 + activations + (1 << 20)

    def test_dimension_mismatch_rejected(self):
        net = nn.init_network([8], 9, 3, seed=1)
        with pytest.raises(ValueError):
            evaluate(net, make_blobs(10, 3, 8, 4.0, seed=2))


class TestMetricsFile:
    def history(self):
        return [
            EpochMetrics(1, 2.302585, 2.31, 0.1, 0.09, 0.01, 0.5, 0),
            EpochMetrics(2, 1.5, 1.6, 0.42, 0.40, 0.02, 0.25, 64),
        ]

    def test_empty_history_is_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([], path)
        assert path.read_text() == ("epoch,train_loss,val_loss,train_acc,val_acc,gap,"
                                    "live_mask_fraction,reactivated_cells\n")

    def test_exact_row_format(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(self.history(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1] == "1,2.302585,2.310000,0.100000,0.090000,0.010000,0.500000,0"
        assert lines[2] == "2,1.500000,1.600000,0.420000,0.400000,0.020000,0.250000,64"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(self.history(), path)
        assert read_metrics(path) == self.history()

    def test_row_count_scales_with_epochs(self, tmp_path):
        path = tmp_path / "m.csv"
        hist = [EpochMetrics(e, 1.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0) for e in range(1, 101)]
        write_metrics(hist, path)
        assert len(path.read_text().splitlines()) == 101

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("epoch,stuff\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_metrics(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="missing"):
            read_metrics(tmp_path / "nope.csv")

    @pytest.mark.parametrize("row", ["2,1.5,abc,0.4,0.4,0.0,0.25,64", "2,1.5,1.6,0.4,0.4,0.0,0.25,6.4"],
                             ids=["float", "int"])
    def test_malformed_cell_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        write_metrics(self.history()[:1], path)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            read_metrics(path)


class TestManifest:
    def test_preset_lists_layer_widths(self, tmp_path):
        cfg = blob_config(tmp_path, architecture="arch1")
        path = tmp_path / "manifest.txt"
        write_manifest(cfg, path)
        assert path.read_text().splitlines()[-1] == "layers = (512, 512, 512)"

    def test_rerun_manifest_is_identical(self, tmp_path):
        cfg = blob_config(tmp_path, reg_kind="dynamic")
        first = tmp_path / "a.txt"
        write_manifest(cfg, first)
        rebuilt = config_from_manifest(first, output_dir=tmp_path / "other")
        second = tmp_path / "b.txt"
        write_manifest(rebuilt, second)
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_preset_fails_before_writing(self, tmp_path):
        path = tmp_path / "manifest.txt"
        with pytest.raises(ValueError):
            write_manifest(blob_config(tmp_path, architecture="arch7"), path)
        assert not path.exists()

    def test_int_for_a_real_setting_held_and_written_as_a_float(self, tmp_path):
        cfg = blob_config(tmp_path, learning_rate=1, min_delta=0, blobs=BlobSpec(separation=10))
        assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
        path = tmp_path / "manifest.txt"
        write_manifest(cfg, path)
        text = path.read_text()
        assert "learning_rate = 1.0\n" in text and "min_delta = 0.0\n" in text and "blobs.separation = 10.0\n" in text
        assert config_from_manifest(path, output_dir=cfg.output_dir) == cfg

    def test_explicit_widths_held_and_written_as_a_tuple(self, tmp_path):
        cfg = blob_config(tmp_path, architecture=[np.int64(8)])
        assert cfg.architecture == (8,) and type(cfg.architecture[0]) is int
        path = tmp_path / "manifest.txt"
        write_manifest(cfg, path)
        assert "architecture = (8,)\n" in path.read_text()

    def test_paths_held_and_written_as_strings(self, tmp_path):
        cfg = blob_config(tmp_path, output_dir=tmp_path / "run", data_dir=np.str_("cifar"), blobs=None)
        assert type(cfg.output_dir) is str and cfg.output_dir == str(tmp_path / "run")
        assert type(cfg.data_dir) is str and cfg.data_dir == "cifar"
        plain = blob_config(tmp_path, output_dir=str(tmp_path / "run"), data_dir="cifar", blobs=None)
        write_manifest(cfg, tmp_path / "a.txt")
        write_manifest(plain, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert cfg == plain

    def test_data_dir_round_trips(self, tmp_path):
        reg = RegularizerConfig(kind="classical", rate=0.3, seed=2)
        cfg = RunConfig(architecture="arch2", regularizer=reg, output_dir=tmp_path,
                        data_dir="/data/cifar", snapshot_epochs=())
        path = tmp_path / "manifest.txt"
        write_manifest(cfg, path)
        rebuilt = config_from_manifest(path, output_dir=tmp_path)
        assert rebuilt.data_dir == "/data/cifar"
        assert rebuilt.regularizer == reg
        assert rebuilt.snapshot_epochs == ()

    def test_missing_manifest_named(self, tmp_path):
        with pytest.raises(ValueError, match="missing manifest"):
            config_from_manifest(tmp_path / "absent.txt", output_dir=tmp_path)

    @pytest.mark.parametrize("source", ["data_dir", "blobs", "injected"])
    @pytest.mark.parametrize("architecture", ["arch3", "custom:16,16", (16, 16), [16, 16]])
    @pytest.mark.parametrize("kind", ["none", "classical", "gaussian", "alpha", "dynamic"])
    def test_round_trip(self, tmp_path, kind, architecture, source):
        data = {"data_dir": {"data_dir": tmp_path / "cifar", "blobs": None}, "blobs": {"blobs": BLOBS},
                "injected": {"blobs": None}}[source]
        cfg = blob_config(tmp_path, reg_kind=kind, architecture=architecture, rate=0.25,
                          lattice_density=0.75, reactivation_fraction=0.5, learning_rate=0.1 + 0.2,
                          patience=3, min_delta=1e-4, snapshot_epochs=(2,), **data)
        path = tmp_path / "manifest.txt"
        write_manifest(cfg, path)
        rebuilt = config_from_manifest(path, output_dir=cfg.output_dir)
        assert rebuilt == cfg  # a path-like data_dir is held, written and read back as its str
        assert type(rebuilt.architecture) is type(cfg.architecture)

    @pytest.mark.parametrize("field, value", [
        ("seed", np.int64(3)), ("rate", np.float64(0.2)), ("architecture", (np.int64(8),)),
        ("snapshot_epochs", (np.int64(1),)), ("epochs", np.int64(2)), ("batch_size", np.int32(16)),
        ("patience", np.int64(2)), ("reg_kind", np.str_("dynamic")), ("architecture", np.str_("arch3")),
        ("rate", np.float32(0.2)),
    ], ids=["seed", "rate", "architecture", "snapshot_epochs", "epochs", "batch_size", "patience", "kind",
            "preset", "float32-rate"])
    def test_numpy_scalars_written_as_plain_values(self, tmp_path, field, value):
        cfg = blob_config(tmp_path, **{field: value})
        path = tmp_path / "manifest.txt"
        write_manifest(cfg, path)
        assert "np." not in path.read_text()
        assert config_from_manifest(path, output_dir=cfg.output_dir) == cfg

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text + "seed = 5\n", r"manifest.txt:20: duplicate manifest key 'seed'"),
        (lambda text: text + "colour = 'red'\n", r"manifest.txt: unknown manifest key 'colour'"),
        (lambda text: text.replace("patience = 5\n", ""), r"manifest.txt: manifest is missing key 'patience'"),
        (lambda text: text.replace("blobs.dim = 8\n", ""), r"manifest.txt: manifest is missing key 'blobs.dim'"),
        (lambda text: text.replace("layers = (8,)\n", ""), r"manifest.txt: manifest is missing key 'layers'"),
        (lambda text: text.replace("epochs = 3", "epochs = three"), r"manifest.txt:7: malformed manifest value"),
        (lambda text: text.replace("layers = (8,)", "layers = (8, 8)"), r"manifest.txt: layers \(8, 8\) do not match"),
        (lambda text: text.replace("epochs = 3", "epochs = -3"), r"manifest.txt: epochs must be non-negative"),
        # a nested config is read from its dotted keys only, never from a bare `regularizer` line
        (lambda text: re.sub(r"(regularizer\..*\n)+", "regularizer = 'dynamic'\n", text),
         r"manifest.txt: manifest is missing key 'regularizer.kind'"),
        (lambda text: text + "regularizer = 'dynamic'\n", r"manifest.txt: unknown manifest key 'regularizer'"),
    ], ids=["duplicate", "unknown", "missing", "missing-nested", "missing-layers", "malformed-value",
            "layers-mismatch", "bad-value", "nested-replaced", "nested-beside"])
    def test_bad_manifest_named(self, tmp_path, edit, message):
        path = tmp_path / "manifest.txt"
        write_manifest(blob_config(tmp_path), path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=message):
            config_from_manifest(path, output_dir=tmp_path)


class TestRun:
    def test_zero_epochs_writes_only_the_manifest(self, tmp_path):
        cfg = blob_config(tmp_path, epochs=0)
        assert run(cfg) == []
        out = tmp_path / "run"
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]

    def test_sanity_blobs_reach_high_train_accuracy(self, tmp_path):
        cfg = blob_config(tmp_path, epochs=50, learning_rate=0.5,
                          blobs=BlobSpec(per_class=100, classes=4, dim=16, separation=10.0))
        history = run(cfg)
        assert history[-1].train_acc >= 0.99

    def test_metrics_file_matches_returned_history(self, tmp_path):
        cfg = blob_config(tmp_path)
        history = run(cfg)
        rounded = read_metrics(tmp_path / "run" / "metrics.csv")
        assert len(rounded) == len(history)
        for slim, full in zip(rounded, history):
            assert slim.epoch == full.epoch
            assert abs(slim.train_loss - full.train_loss) < 5e-7
            assert abs(slim.gap - full.gap) < 5e-7

    def test_metrics_file_keeps_the_epochs_before_a_failure(self, tmp_path, monkeypatch):
        calls = []

        def spy(network, dataset):
            calls.append(dataset.name)
            if len(calls) > 4:  # epochs 1 and 2 evaluate twice each; epoch 3 fails
                raise FloatingPointError("diverged")
            return evaluate(network, dataset)

        two_epochs = blob_config(tmp_path, epochs=2, output_dir=tmp_path / "two")
        run(two_epochs)
        monkeypatch.setattr(harness, "evaluate", spy)
        with pytest.raises(FloatingPointError, match="diverged"):
            run(blob_config(tmp_path, epochs=5))
        out = tmp_path / "run"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "metrics.csv"]
        assert [m.epoch for m in read_metrics(out / "metrics.csv")] == [1, 2]
        assert (out / "metrics.csv").read_bytes() == (tmp_path / "two" / "metrics.csv").read_bytes()

        # a run refused before epoch 1 writes no metrics.csv
        val = make_blobs(10, 3, 9, 8.0, seed=2)
        refused = blob_config(tmp_path, blobs=None, output_dir=tmp_path / "refused")
        with pytest.raises(ValueError, match="validation set has"):
            run(refused, data=(make_blobs(30, 3, 8, 8.0, seed=1), val))
        assert not (tmp_path / "refused" / "metrics.csv").exists()

    @pytest.mark.parametrize("kind", ["none", "dynamic"])
    def test_divergence_keeps_its_epoch_and_names_it(self, tmp_path, monkeypatch, kind):
        # features of 1e306 are finite, so the run starts, but the first
        # epoch's forward passes overflow and both losses come out NaN
        blobs = make_blobs(60, 3, 8, 8.0, seed=1)
        train = Dataset(blobs.features * 1e306, blobs.labels, name="huge", class_count=3)
        hooks, hook = [], harness.on_epoch_end_dynamic
        monkeypatch.setattr(harness, "on_epoch_end_dynamic", lambda *args: hooks.append(args) or hook(*args))
        cfg = blob_config(tmp_path, reg_kind=kind, epochs=3, snapshot_epochs=(1, 2), blobs=None)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="epoch 1"):
            run(cfg, data=(train, make_blobs(12, 3, 8, 8.0, seed=2)))
        out = tmp_path / "run"
        history = read_metrics(out / "metrics.csv")
        assert [m.epoch for m in history] == [1]
        assert not math.isfinite(history[0].train_loss) and not math.isfinite(history[0].val_loss)
        # argmax over NaN probabilities would count class 0; a diverged row holds no accuracy
        assert all(math.isnan(v) for v in (history[0].train_acc, history[0].val_acc, history[0].gap))
        assert history[0].reactivated_cells == 0
        assert not (out / "metrics.csv.tmp").exists()
        assert hooks == []
        assert not (out / "lattice_epoch_2.pbm").exists()
        assert (out / "lattice_epoch_1.pbm").exists() == (kind == "dynamic")

    def test_gap_column_is_exact_difference(self, tmp_path):
        history = run(blob_config(tmp_path, epochs=4))
        for m in history:
            assert abs(m.gap - (m.train_acc - m.val_acc)) < 1e-9

    def test_identical_config_reruns_byte_identical(self, tmp_path):
        cfg_a = blob_config(tmp_path, reg_kind="dynamic", output_dir=tmp_path / "a", epochs=4)
        cfg_b = blob_config(tmp_path, reg_kind="dynamic", output_dir=tmp_path / "b", epochs=4)
        run(cfg_a)
        run(cfg_b)
        for name in ("metrics.csv", "lattice_epoch_1.pbm", "lattice_epoch_2.pbm"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("kind", ["classical", "alpha", "dynamic"])
    def test_the_helper_thread_changes_no_byte(self, tmp_path, monkeypatch, kind):
        def synchronous(fn, *args):  # the helper's work done on the calling thread, when it is started
            result = fn(*args)
            return lambda: result

        def artifacts(name):  # every file the run writes, by name
            out = tmp_path / name
            run(blob_config(tmp_path, reg_kind=kind, rate=0.2, output_dir=out, epochs=4))
            return {p.name: p.read_bytes() for p in out.iterdir()}

        threaded = artifacts("threaded")
        assert len(threaded) == (4 if kind == "dynamic" else 2)  # manifest, metrics and two snapshots
        monkeypatch.setattr(harness, "_started", synchronous)
        assert artifacts("serial") == threaded

    def test_a_batch_preparation_error_is_raised_after_the_helper_ends(self, tmp_path, monkeypatch):
        calls, gain = [], harness.classical_gain

        def failing(*args):  # one draw per batch, 3 batches an epoch: call 5 prepares epoch 2's batch 1
            calls.append(threading.current_thread())
            if len(calls) == 5:
                raise RuntimeError("draw 5 failed")
            return gain(*args)

        run(blob_config(tmp_path, reg_kind="classical", rate=0.2, epochs=1, output_dir=tmp_path / "one"))
        monkeypatch.setattr(harness, "classical_gain", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="draw 5 failed"):
            run(blob_config(tmp_path, reg_kind="classical", rate=0.2, epochs=3))
        assert threading.active_count() == threads
        assert threading.current_thread() not in calls  # every batch was prepared on a helper
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == (tmp_path / "one" / "metrics.csv").read_bytes()

    def test_a_training_step_error_is_raised_after_the_helper_ends(self, tmp_path, monkeypatch):
        failed, prepared = threading.Event(), []
        calls, gain, backward = [], harness.classical_gain, nn.backward

        def failing(*args):  # backward 5 trains epoch 2's batch 1, while draw 6 prepares its batch 2
            calls.append(None)
            if len(calls) == 5:
                failed.set()
                raise RuntimeError("backward 5 failed")
            return backward(*args)

        def draw(*args):  # draw 6 prepares epoch 2's batch 2, and is still running when backward 5 fails
            if len(prepared) == 5 and failed.wait(timeout=5):
                time.sleep(0.05)
            result = gain(*args)
            prepared.append(failed.is_set())
            return result

        run(blob_config(tmp_path, reg_kind="classical", rate=0.2, epochs=1, output_dir=tmp_path / "one"))
        monkeypatch.setattr(nn, "backward", failing)
        monkeypatch.setattr(harness, "classical_gain", draw)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="backward 5 failed"):
            run(blob_config(tmp_path, reg_kind="classical", rate=0.2, epochs=3))
        assert prepared == [False] * 5 + [True]  # draw 6 finished before run raised
        assert threading.active_count() == threads
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == (tmp_path / "one" / "metrics.csv").read_bytes()

    def test_baseline_kinds_all_train(self, tmp_path):
        for kind in ("classical", "gaussian", "alpha"):
            cfg = blob_config(tmp_path, reg_kind=kind, rate=0.2,
                              output_dir=tmp_path / kind, epochs=2)
            history = run(cfg)
            assert len(history) == 2
            assert all(m.live_mask_fraction == 0.0 and m.reactivated_cells == 0
                       for m in history)

    def test_dynamic_run_writes_snapshots_with_lattice_dimensions(self, tmp_path):
        cfg = blob_config(tmp_path, reg_kind="dynamic", architecture=[8, 8, 8],
                          epochs=3, snapshot_epochs=(1, 3))
        run(cfg)
        out = tmp_path / "run"
        snaps = sorted(p.name for p in out.glob("*.pbm"))
        assert snaps == ["lattice_epoch_1.pbm", "lattice_epoch_3.pbm"]
        header = (out / "lattice_epoch_1.pbm").read_text().splitlines()[:2]
        assert header == ["P1", "8 3"]  # cols = layer width, rows = hidden layers

    def test_non_dynamic_run_writes_no_snapshots(self, tmp_path):
        run(blob_config(tmp_path, reg_kind="classical", rate=0.5))
        assert list((tmp_path / "run").glob("*.pbm")) == []

    def test_first_epoch_snapshot_is_the_initial_lattice(self, tmp_path):
        cfg = blob_config(tmp_path, reg_kind="dynamic", epochs=1, snapshot_epochs=(1,))
        run(cfg)
        lat = init_random(1, 8, 0.5, seed=derive_seed(cfg.seed, "lattice"))
        body = (tmp_path / "run" / "lattice_epoch_1.pbm").read_text().splitlines()[2:]
        got = [[int(v) for v in line.split()] for line in body]
        assert np.array_equal(np.asarray(got), lat)

    def test_dynamic_needs_uniform_widths(self, tmp_path):
        with pytest.raises(ValueError, match="uniform"):
            run(blob_config(tmp_path, reg_kind="dynamic", architecture=[8, 6]))

    def test_reactivation_accounting_replays(self, tmp_path):
        # force a trigger every epoch after the first (nothing can improve
        # by 100), then replay the lattice trajectory independently: every
        # epoch's snapshot and the revived-cell counts must match. The board
        # is 4 x 8: on a single row almost every revived cell dies at the
        # next step, so the snapshots hardly depend on which cells revived.
        cfg = blob_config(tmp_path, reg_kind="dynamic", architecture=[8] * 4, epochs=6, patience=1,
                          min_delta=100.0, lattice_density=0.5, reactivation_fraction=0.25,
                          snapshot_epochs=tuple(range(1, 7)))
        history = run(cfg)
        assert history[0].reactivated_cells == 0  # first update improves on +inf
        assert sum(m.reactivated_cells for m in history[1:]) > 0

        lat = init_random(4, 8, 0.5, seed=derive_seed(cfg.seed, "lattice"))
        boards = [lat]  # the board each epoch trains under
        expected = [0]
        for generation in range(1, 6):
            lat = step(lat)
            boards.append(lat)
            dead = lat.size - int(lat.sum())
            quota = math.ceil(0.25 * dead)
            before = int(lat.sum())
            lat = reactivate(lat, quota, derive_seed(cfg.seed, "reactivate", generation))
            expected.append(int(lat.sum()) - before)
        for epoch, board in enumerate(boards, start=1):
            snapshot = (Path(cfg.output_dir) / f"lattice_epoch_{epoch}.pbm").read_text().splitlines()[2:]
            assert snapshot == [" ".join(map(str, row)) for row in board], f"epoch {epoch}"
        assert [m.reactivated_cells for m in history] == expected

    def test_live_fraction_column_tracks_lattice(self, tmp_path):
        cfg = blob_config(tmp_path, reg_kind="dynamic", epochs=3, lattice_density=1.0)
        history = run(cfg)
        assert history[0].live_mask_fraction == 1.0
        # epoch 2 must report the stepped lattice (on a saturated 1x8 strip
        # the corners die, interior survives on exactly 2 neighbors)
        lat = init_random(1, 8, 1.0, seed=derive_seed(cfg.seed, "lattice"))
        assert history[1].live_mask_fraction == step(lat).sum() / lat.size

    def test_bad_numbers_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run(blob_config(tmp_path, epochs=-1))
        with pytest.raises(ValueError):
            run(blob_config(tmp_path, batch_size=0))
        with pytest.raises(ValueError):
            run(blob_config(tmp_path, learning_rate=0.0))

    @pytest.mark.parametrize("kind", ["none", "classical", "gaussian", "alpha", "dynamic"])
    @pytest.mark.parametrize("bad, message", [
        ({"epochs": -1}, "epochs"), ({"batch_size": 0}, "batch_size"),
        ({"learning_rate": 0.0}, "learning_rate"), ({"architecture": "arch7"}, "arch7"),
        ({"patience": 0}, "patience"), ({"min_delta": -1e-3}, "min_delta"),
        ({"learning_rate": math.nan}, "learning_rate"), ({"learning_rate": math.inf}, "learning_rate"),
        ({"min_delta": math.nan}, "min_delta"), ({"min_delta": math.inf}, "min_delta"),
        ({"snapshot_epochs": (0,)}, "snapshot_epochs"), ({"snapshot_epochs": (2, -1)}, "snapshot_epochs"),
        ({"epochs": 2.5}, "epochs must be an integer"), ({"batch_size": 8.5}, "batch_size must be an integer"),
        ({"patience": 2.5}, "patience must be an integer"), ({"seed": 2.5}, "seed must be an integer"),
        ({"snapshot_epochs": (1.5,)}, "snapshot_epochs must be integers"),
        ({"architecture": (8.7, 8.2)}, "architecture widths must be integers"),
        # a string or None for a real setting is refused by its type, before a range check compares it
        ({"learning_rate": "0.1"}, "learning_rate must be a real number"),
        ({"min_delta": "0.1"}, "min_delta must be a real number"),
        ({"learning_rate": None}, "learning_rate must be a real number"),
        # a bool is no number, and a path setting must be a str or path-like
        ({"epochs": True}, "epochs must be an integer"), ({"patience": True}, "patience must be an integer"),
        ({"learning_rate": True}, "learning_rate must be a real number"),
        ({"snapshot_epochs": (True,)}, "snapshot_epochs must be integers"),
        ({"snapshot_epochs": 5}, "snapshot_epochs must be integers"),
        ({"architecture": (True, 4)}, "architecture widths must be integers"),
        ({"output_dir": None}, "output_dir must be a path"), ({"output_dir": 3}, "output_dir must be a path"),
        ({"data_dir": 3}, "data_dir must be a path"),
    ])
    def test_bad_config_rejected_when_built(self, tmp_path, kind, bad, message):
        with pytest.raises(ValueError, match=message):
            blob_config(tmp_path, reg_kind=kind, **bad)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad, message", [
        ({"regularizer": "dynamic"}, "regularizer must be a RegularizerConfig"),
        ({"blobs": "blobs"}, "blobs must be a BlobSpec or None"),
    ], ids=["regularizer", "blobs"])
    def test_nested_config_of_another_type_rejected_when_built(self, tmp_path, bad, message):
        kwargs = dict(architecture=[8], regularizer=RegularizerConfig(kind="none"), output_dir=tmp_path / "run")
        with pytest.raises(ValueError, match=message):
            RunConfig(**{**kwargs, **bad})

    @pytest.mark.parametrize("spec, message", [
        ({"per_class": 0}, "positive"), ({"classes": 8, "dim": 4}, "at least classes"),
        ({"separation": -1.0}, "separation"), ({"separation": math.nan}, "separation"),
        ({"per_class": 10.5}, "per_class must be an integer"), ({"classes": 2.0}, "classes must be an integer"),
        ({"dim": 8.0}, "dim must be an integer"), ({"separation": "10"}, "separation must be a real number"),
        ({"separation": None}, "separation must be a real number"),
        ({"per_class": True}, "per_class must be an integer"),
    ])
    def test_bad_blob_spec_rejected_when_built(self, tmp_path, spec, message):
        with pytest.raises(ValueError, match=message):
            blob_config(tmp_path, blobs=BlobSpec(**spec))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_two_data_sources_rejected_before_writing(self, tmp_path, epochs):
        cfg = blob_config(tmp_path, epochs=epochs, data_dir=tmp_path / "cifar")
        with pytest.raises(ValueError, match="exactly one data source"):
            run(cfg)
        assert not (tmp_path / "run").exists()

    def test_missing_data_source_rejected(self, tmp_path):
        cfg = blob_config(tmp_path, blobs=None)
        with pytest.raises(ValueError, match="exactly one data source"):
            run(cfg)

    @pytest.mark.parametrize("reg_kind", ["dynamic", "alpha"])
    def test_byte_features_reproduce_float_features(self, tmp_path, reg_kind):
        # the same pixels stored as bytes and as the floats the loader used
        # to build (astype(float64) / 255) must train identically
        def split(dataset):
            raw = np.round(dataset.features * 255).astype(np.uint8)
            return (Dataset(raw, dataset.labels, name="bytes", class_count=3),
                    Dataset(raw.astype(np.float64) / 255.0, dataset.labels, name="floats",
                            class_count=3))

        train_bytes, train_floats = split(make_blobs(40, 3, 8, 4.0, seed=1))
        val_bytes, val_floats = split(make_blobs(10, 3, 8, 4.0, seed=2))
        for name, data in (("bytes", (train_bytes, val_bytes)), ("floats", (train_floats, val_floats))):
            run(blob_config(tmp_path, reg_kind=reg_kind, rate=0.3, architecture=[8, 8], epochs=3,
                            batch_size=16, output_dir=tmp_path / name, blobs=None), data=data)
        names = sorted(p.name for p in (tmp_path / "floats").iterdir())
        assert "metrics.csv" in names
        for name in names:
            assert (tmp_path / "bytes" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes()

    @pytest.mark.parametrize("val_shape", [(10, 3, 9), (10, 4, 8)], ids=["width", "classes"])
    def test_mismatched_validation_set_fails_before_training(self, tmp_path, monkeypatch, val_shape):
        steps = []
        sgd_step = nn.sgd_step
        monkeypatch.setattr(nn, "sgd_step", lambda *args: steps.append(1) or sgd_step(*args))
        train = make_blobs(30, 3, 8, 8.0, seed=1)
        val = make_blobs(*val_shape, 8.0, seed=2)
        with pytest.raises(ValueError, match="validation set has"):
            run(blob_config(tmp_path, blobs=None), data=(train, val))
        assert steps == []

    @pytest.mark.parametrize("empty", ["train", "validation"])
    def test_empty_set_fails_before_training(self, tmp_path, monkeypatch, empty):
        steps = []
        sgd_step = nn.sgd_step
        monkeypatch.setattr(nn, "sgd_step", lambda *args: steps.append(1) or sgd_step(*args))
        data = [make_blobs(30, 3, 8, 8.0, seed=1), make_blobs(10, 3, 8, 8.0, seed=2)]
        i = 0 if empty == "train" else 1
        with pytest.raises(ValueError, match="need rows"):
            data[i] = Dataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64), name="empty", class_count=3)
            run(blob_config(tmp_path, blobs=None), data=tuple(data))
        assert steps == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("split", ["train", "validation"])
    def test_non_finite_features_fail_before_training(self, tmp_path, monkeypatch, split, bad):
        steps = []
        sgd_step = nn.sgd_step
        monkeypatch.setattr(nn, "sgd_step", lambda *args: steps.append(1) or sgd_step(*args))
        finite = np.random.default_rng(0).random((20, 4))
        holed = finite.copy()
        holed[7, 2] = bad
        labels = np.arange(20) % 3
        data = [Dataset(finite, labels, name="finite", class_count=3)] * 2
        data[0 if split == "train" else 1] = Dataset(holed, labels, name="holed", class_count=3)
        with pytest.raises(ValueError, match="dataset 'holed' has NaN or infinite features"):
            run(blob_config(tmp_path, architecture=[4], epochs=1, blobs=None), data=tuple(data))
        assert steps == []
        assert not (tmp_path / "run" / "manifest.txt").exists()

    def test_injected_datasets_bypass_loading(self, tmp_path):
        train = make_blobs(30, 3, 8, 8.0, seed=1)
        val = make_blobs(10, 3, 8, 8.0, seed=2)
        cfg = blob_config(tmp_path, blobs=None)
        history = run(cfg, data=(train, val))
        assert len(history) == cfg.epochs

    @pytest.mark.parametrize("source", ["data_dir", "blobs"])
    def test_injected_datasets_refuse_a_configured_source(self, tmp_path, source):
        # the manifest would name a source the run never read, and a rerun from it would train on other data
        data = (make_blobs(30, 3, 8, 8.0, seed=1), make_blobs(10, 3, 8, 8.0, seed=2))
        cfg = blob_config(tmp_path, blobs=BLOBS if source == "blobs" else None,
                          data_dir=tmp_path / "cifar" if source == "data_dir" else None)
        with pytest.raises(ValueError, match="exactly one data source"):
            run(cfg, data=data)
        assert not (tmp_path / "run").exists()

    def test_zero_epoch_run_checks_its_data_source(self, tmp_path):
        # zero epochs train nothing, but their manifest would still name blobs the run never read
        data = (make_blobs(30, 3, 8, 8.0, seed=1), make_blobs(10, 3, 8, 8.0, seed=2))
        with pytest.raises(ValueError, match="exactly one data source"):
            run(blob_config(tmp_path, epochs=0), data=data)
        assert not (tmp_path / "run").exists()


class TestCompare:
    def fake_run(self, tmp_path, name, train_acc, val_acc, kind="dynamic"):
        d = tmp_path / name
        d.mkdir()
        hist = [
            EpochMetrics(1, 2.0, 2.1, 0.3, 0.29, 0.3 - 0.29, 0.0, 0),
            EpochMetrics(2, 1.0, 1.4, train_acc, val_acc, train_acc - val_acc, 0.0, 0),
        ]
        write_metrics(hist, d / "metrics.csv")
        cfg = blob_config(tmp_path, reg_kind=kind, output_dir=d)
        write_manifest(cfg, d / "manifest.txt")
        return d

    def test_gap_examples(self, tmp_path):
        a = self.fake_run(tmp_path, "dd", 0.94, 0.51, kind="dynamic")
        b = self.fake_run(tmp_path, "cd", 0.573, 0.489, kind="classical")
        out = tmp_path / "summary.csv"
        rows = compare([a, b], out)
        assert rows[0][1] == "dynamic" and rows[1][1] == "classical"
        assert abs(rows[0][7] - 0.43) < 1e-9
        assert abs(rows[1][7] - 0.084) < 1e-9
        lines = out.read_text().splitlines()
        assert lines[0] == ("run,regularizer,final_train_loss,final_val_loss,"
                            "final_train_acc,final_val_acc,max_val_acc,final_gap")
        assert lines[1].endswith(",0.430000")
        assert lines[2].endswith(",0.084000")

    def test_max_val_acc_scans_all_epochs(self, tmp_path):
        d = tmp_path / "r"
        d.mkdir()
        hist = [EpochMetrics(1, 1.0, 1.0, 0.5, 0.45, 0.05, 0.0, 0),
                EpochMetrics(2, 0.9, 1.1, 0.6, 0.40, 0.20, 0.0, 0)]
        write_metrics(hist, d / "metrics.csv")
        write_manifest(blob_config(tmp_path, output_dir=d), d / "manifest.txt")
        rows = compare([d], tmp_path / "s.csv")
        assert rows[0][6] == 0.45

    def test_missing_metrics_named(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="metrics"):
            compare([empty], tmp_path / "s.csv")

    def test_empty_metrics_rejected(self, tmp_path):
        d = tmp_path / "hollow"
        d.mkdir()
        write_metrics([], d / "metrics.csv")
        write_manifest(blob_config(tmp_path, output_dir=d), d / "manifest.txt")
        with pytest.raises(ValueError, match="no epoch rows"):
            compare([d], tmp_path / "s.csv")

    def test_malformed_manifest_line_named(self, tmp_path):
        d = self.fake_run(tmp_path, "garbled", 0.5, 0.4)
        manifest = d / "manifest.txt"
        manifest.write_text(manifest.read_text() + "regularizer: dynamic\n")
        lineno = len(manifest.read_text().splitlines())
        with pytest.raises(ValueError, match=f"manifest.txt:{lineno}: malformed"):
            compare([d], tmp_path / "s.csv")

    def test_tilde_output_dir_expanded_when_written_and_read(self, tmp_path, monkeypatch):
        # "~" was taken literally: the run wrote ./~/runs/a under the working directory
        home = tmp_path / "home"
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(tmp_path)
        cfg = blob_config(tmp_path, output_dir="~/runs/a", epochs=1)
        run(cfg)
        assert cfg.output_dir == "~/runs/a"
        assert (home / "runs" / "a" / "metrics.csv").is_file() and not (tmp_path / "~").exists()
        rows = compare(["~/runs/a"], tmp_path / "s.csv")
        assert [row[:2] for row in rows] == [("a", "none")]

    def test_tilde_out_path_expanded(self, tmp_path, monkeypatch):
        # "~/summary.csv" was taken literally and raised FileNotFoundError for the missing ./~ directory
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(tmp_path)
        d = self.fake_run(tmp_path, "r", 0.5, 0.4)
        rows = compare([d], "~/summary.csv")
        assert (home / "summary.csv").read_text().splitlines()[1].startswith("r,dynamic,")
        assert len(rows) == 1 and not (tmp_path / "~").exists()


class TestCli:
    def test_train_synthetic_succeeds(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--arch", "custom:8", "--reg", "none", "--epochs", "2",
                     "--batch", "64", "--lr", "0.2", "--seed", "3", "--synthetic",
                     "--out", str(out), "--blob-classes", "3", "--blob-dim", "8",
                     "--blob-per-class", "40"])
        assert code == 0
        assert (out / "metrics.csv").is_file() and (out / "manifest.txt").is_file()
        assert "train_acc" in capsys.readouterr().out

    def test_train_dynamic_writes_snapshots(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--arch", "custom:8,8", "--reg", "dynamic", "--epochs", "2",
                     "--batch", "64", "--lr", "0.2", "--seed", "3", "--synthetic",
                     "--out", str(out), "--snapshot-epochs", "1,2",
                     "--blob-classes", "3", "--blob-dim", "8", "--blob-per-class", "40"])
        assert code == 0
        assert sorted(p.name for p in out.glob("*.pbm")) == ["lattice_epoch_1.pbm",
                                                             "lattice_epoch_2.pbm"]

    def test_unknown_arch_is_a_diagnostic_failure(self, tmp_path, capsys):
        code = main(["train", "--arch", "arch9", "--synthetic", "--out", str(tmp_path / "r")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_reg_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--reg", "bogus", "--synthetic", "--out", str(tmp_path / "r")])

    def test_data_source_is_required_and_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--out", str(tmp_path / "r")])
        with pytest.raises(SystemExit):
            main(["train", "--synthetic", "--data-dir", "/x", "--out", str(tmp_path / "r")])

    def test_missing_data_dir_is_a_diagnostic_failure(self, tmp_path, capsys):
        code = main(["train", "--data-dir", str(tmp_path / "absent"), "--epochs", "1",
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_divergence_is_one_error_line(self, tmp_path, capsys):
        numpy_errors = np.geterr()
        # 60 rows are one evaluation chunk; 300 rows are three, and the helper thread takes the second
        for per_class in ("20", "100"):
            out = tmp_path / f"run-{per_class}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["train", "--synthetic", "--arch", "custom:8", "--reg", "dynamic", "--epochs", "3",
                             "--lr", "1e300", "--blob-per-class", per_class, "--blob-classes", "3",
                             "--blob-dim", "8", "--out", str(out)])
            assert code == 1
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
            err = capsys.readouterr().err
            assert err.startswith("error: training diverged in epoch 1:") and err.count("\n") == 1
            assert (out / "metrics.csv").read_text().splitlines()[1].startswith("1,nan,nan,nan,nan,nan,")
            assert np.geterr() == numpy_errors  # a library caller keeps its own settings

    def test_compare_end_to_end(self, tmp_path, capsys):
        for seed in ("1", "2"):
            assert main(["train", "--arch", "custom:8", "--epochs", "2", "--batch", "64",
                         "--lr", "0.2", "--seed", seed, "--synthetic",
                         "--out", str(tmp_path / f"run{seed}"), "--blob-classes", "3",
                         "--blob-dim", "8", "--blob-per-class", "40"]) == 0
        summary = tmp_path / "summary.csv"
        code = main(["compare", str(tmp_path / "run1"), str(tmp_path / "run2"),
                     "--out", str(summary)])
        assert code == 0
        assert len(summary.read_text().splitlines()) == 3

    def test_compare_bad_nested_config_is_one_error_line(self, tmp_path, capsys):
        d = TestCompare().fake_run(tmp_path, "r", 0.5, 0.4)
        manifest = d / "manifest.txt"
        manifest.write_text(re.sub(r"(regularizer\..*\n)+", "regularizer = 'dynamic'\n", manifest.read_text()))
        code = main(["compare", str(d), "--out", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and err.count("\n") == 1

    def test_compare_missing_dir_fails(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "nothing"), "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
