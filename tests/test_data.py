"""Dataset ingestion, blobs, and batching tests."""

import shutil

import numpy as np
import pytest

from lifedrop.data import (FILE_BYTES, RECORD_BYTES, TEST_FILE, TRAIN_FILES, BatchPlan,
                           CifarFormatError, Dataset, batches, load_cifar10, make_blobs)


def lstsq_accuracy(train: Dataset, test: Dataset) -> float:
    """Linear least-squares classifier, fit on train, scored on test."""
    x = np.hstack([train.features, np.ones((train.n, 1))])
    w, *_ = np.linalg.lstsq(x, np.eye(train.class_count)[train.labels], rcond=None)
    scores = np.hstack([test.features, np.ones((test.n, 1))]) @ w
    return float((scores.argmax(axis=1) == test.labels).mean())


class TestDatasetValue:
    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.array([0, 4]), name="x", class_count=4)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.array([0]), name="x", class_count=2)


class TestMakeBlobs:
    def test_same_seed_identical(self):
        a = make_blobs(20, 3, 8, 5.0, seed=1)
        b = make_blobs(20, 3, 8, 5.0, seed=1)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_features_in_unit_box(self):
        d = make_blobs(50, 4, 10, 7.0, seed=2)
        assert d.features.min() >= 0.0 and d.features.max() <= 1.0
        assert np.isfinite(d.features).all()

    def test_balanced_classes(self):
        d = make_blobs(30, 4, 8, 3.0, seed=3)
        assert np.array_equal(np.bincount(d.labels), [30, 30, 30, 30])

    def test_wide_separation_is_linearly_separable(self):
        train = make_blobs(200, 2, 4, 10.0, seed=4)
        assert lstsq_accuracy(train, train) >= 0.99

    def test_zero_separation_carries_no_signal(self):
        train = make_blobs(250, 4, 8, 0.0, seed=5)
        held_out = make_blobs(250, 4, 8, 0.0, seed=6)
        assert 0.15 <= lstsq_accuracy(train, held_out) <= 0.35

    def test_dim_smaller_than_classes_rejected(self):
        with pytest.raises(ValueError):
            make_blobs(10, 5, 3, 1.0, seed=0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            make_blobs(0, 2, 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            make_blobs(10, 2, 4, -1.0, seed=0)


class TestBatches:
    def dataset(self, n, classes=4):
        # feature column 0 encodes the row index so emitted batches can be
        # traced back to dataset rows
        feats = np.zeros((n, 3))
        feats[:, 0] = np.arange(n) / n
        labels = np.arange(n) % classes
        return Dataset(feats, labels, name="trace", class_count=classes)

    def test_batch_sizes(self):
        d = self.dataset(1000)
        sizes = [x.shape[0] for x, _ in batches(d, BatchPlan(512, seed=1), epoch=1)]
        assert sizes == [512, 488]

    def test_every_sample_exactly_once(self):
        d = self.dataset(100)
        seen = []
        for x, y in batches(d, BatchPlan(32, seed=2), epoch=3):
            seen.extend(np.round(x[:, 0] * 100).astype(int).tolist())
            assert y.shape[1] == 4
        assert sorted(seen) == list(range(100))

    def test_one_hot_labels_match(self):
        d = self.dataset(50)
        for x, y in batches(d, BatchPlan(16, seed=4), epoch=0):
            idx = np.round(x[:, 0] * 50).astype(int)
            assert np.array_equal(y.argmax(axis=1), d.labels[idx])
            assert np.array_equal(y.sum(axis=1), np.ones(len(idx)))

    def test_same_seed_and_epoch_reproduce_order(self):
        d = self.dataset(64)
        a = [x[:, 0].tolist() for x, _ in batches(d, BatchPlan(16, seed=5), epoch=2)]
        b = [x[:, 0].tolist() for x, _ in batches(d, BatchPlan(16, seed=5), epoch=2)]
        assert a == b

    def test_different_epochs_reshuffle(self):
        d = self.dataset(64)
        a = [x[:, 0].tolist() for x, _ in batches(d, BatchPlan(64, seed=5), epoch=1)]
        b = [x[:, 0].tolist() for x, _ in batches(d, BatchPlan(64, seed=5), epoch=2)]
        assert a != b

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            BatchPlan(0, seed=1)


class TestLoadCifar10:
    def test_split_counts(self, cifar_dir):
        train, val = load_cifar10(cifar_dir)
        assert train.n == 50_000 and val.n == 10_000
        assert train.features.shape == (50_000, 3072)
        assert train.class_count == val.class_count == 10

    def test_per_class_counts(self, cifar_dir):
        train, val = load_cifar10(cifar_dir)
        assert np.array_equal(np.bincount(train.labels, minlength=10), [5000] * 10)
        assert np.array_equal(np.bincount(val.labels, minlength=10), [1000] * 10)

    def test_value_range_and_endpoints(self, cifar_dir, using_real_cifar):
        train, _ = load_cifar10(cifar_dir)
        assert train.features.min() >= 0.0 and train.features.max() <= 1.0
        assert not np.isnan(train.features).any()
        if not using_real_cifar:
            # the generated corpus pins record 0 all-white and record 1 all-black
            assert np.array_equal(train.features[0], np.ones(3072))
            assert np.array_equal(train.features[1], np.zeros(3072))

    def test_byte_255_maps_to_exactly_one(self, cifar_dir):
        train, _ = load_cifar10(cifar_dir)
        top = train.features.max()
        assert top == 1.0  # 255/255, no rounding residue

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(CifarFormatError, match="data_batch_1.bin"):
            load_cifar10(tmp_path)

    def test_truncated_file_rejected(self, cifar_dir, tmp_path):
        for name in (*TRAIN_FILES, TEST_FILE):
            if name == TRAIN_FILES[2]:
                blob = (cifar_dir / name).read_bytes()
                (tmp_path / name).write_bytes(blob[:-1])
            else:
                (tmp_path / name).symlink_to(cifar_dir / name)
        with pytest.raises(CifarFormatError, match=f"expected {FILE_BYTES} bytes, found {FILE_BYTES - 1}"):
            load_cifar10(tmp_path)

    def test_bad_label_byte_reported_with_offset(self, cifar_dir, tmp_path):
        for name in (*TRAIN_FILES, TEST_FILE):
            if name == TEST_FILE:
                shutil.copy(cifar_dir / name, tmp_path / name)
            else:
                (tmp_path / name).symlink_to(cifar_dir / name)
        corrupt_record = 7
        with open(tmp_path / TEST_FILE, "r+b") as fh:
            fh.seek(corrupt_record * RECORD_BYTES)
            fh.write(b"\x0b")  # label byte 11
        with pytest.raises(CifarFormatError,
                           match=f"label byte 11 > 9 at offset {corrupt_record * RECORD_BYTES}"):
            load_cifar10(tmp_path)
