"""Dataset ingestion, blobs, and batching tests."""

import re
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from lifedrop import data
from lifedrop.data import (FILE_BYTES, RECORD_BYTES, TEST_FILE, TRAIN_FILES, Dataset, batches, load_cifar10,
                           make_blobs)


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
        for labels in ([0.5, 1.7, 2.2], [True, False, True]):  # no class indices, though they would cast to some
            with pytest.raises(ValueError, match="integer"):
                Dataset(np.zeros((3, 2)), labels, name="x", class_count=4)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.array([0]), name="x", class_count=2)

    @pytest.mark.parametrize("class_count", [2.5, "3", None, True])
    def test_class_count_must_be_a_positive_integer(self, class_count):
        # a float count was accepted and built int(2.5) output units; training then indexed past them
        with pytest.raises(ValueError, match="class_count must be"):
            Dataset(np.zeros((2, 3)), np.array([0, 1]), name="x", class_count=class_count)

    @pytest.mark.parametrize("name", [3, None, b"x"])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ValueError, match="name must be a string"):
            Dataset(np.zeros((2, 3)), np.array([0, 1]), name=name, class_count=2)

    def test_numpy_class_count_stored_as_int(self):
        d = Dataset(np.zeros((2, 3)), np.array([0, 1]), name="x", class_count=np.int64(2))
        assert type(d.class_count) is int and d.class_count == 2

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_zero_rows_rejected(self, dtype):
        with pytest.raises(ValueError, match="no rows"):
            Dataset(np.zeros((0, 3), dtype=dtype), np.zeros(0, dtype=np.int64), name="x", class_count=2)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_zero_feature_columns_rejected(self, dtype):
        # a run on (6, 0) features divided by zero in init_network (bytes) or reduced an empty array (floats)
        with pytest.raises(ValueError, match="dataset 'x' has no feature columns"):
            Dataset(np.zeros((6, 0), dtype=dtype), np.zeros(6, dtype=np.int64), name="x", class_count=2)

    def test_float64_features_are_not_copied(self):
        x = np.random.default_rng(0).random((4, 3))
        d = Dataset(x, np.zeros(4, dtype=np.int64), name="x", class_count=1)
        assert np.shares_memory(d.features, x)
        assert np.shares_memory(d.rows(slice(1, 3)), x)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_other_dtypes_coerced_to_float64(self, dtype):
        x = np.arange(6, dtype=dtype).reshape(2, 3)
        d = Dataset(x, np.zeros(2, dtype=np.int64), name="x", class_count=1)
        assert d.features.dtype == np.float64
        assert np.array_equal(d.rows(slice(None)), np.arange(6.0).reshape(2, 3))

    def test_uint8_features_mean_bytes_over_255(self):
        x = np.array([[0, 51, 255]], dtype=np.uint8)
        d = Dataset(x, np.zeros(1, dtype=np.int64), name="x", class_count=1)
        assert d.features.dtype == np.uint8
        assert np.array_equal(d.rows(slice(None)), [[0.0, 0.2, 1.0]])


class TestRows:
    """rows() against the widening formula, for every byte value."""

    def dataset(self):
        raw = np.arange(256, dtype=np.uint8).reshape(32, 8)
        return Dataset(raw, np.zeros(32, dtype=np.int64), name="bytes", class_count=1), raw.astype(np.float64) / 255.0

    def test_slice_is_bitwise_exact(self):
        d, expected = self.dataset()
        got = d.rows(slice(None))
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
        assert d.rows(slice(5, 9)).tobytes() == expected[5:9].tobytes()

    def test_fancy_index_is_bitwise_exact(self):
        d, expected = self.dataset()
        idx = np.random.default_rng(3).permutation(32)
        assert d.rows(idx).tobytes() == expected[idx].tobytes()

    def test_bytes_come_back_as_a_new_array_on_every_call(self):
        # evaluate frees each chunk before reading the next, so no call may hand back memory another holds
        d, expected = self.dataset()
        for index in (slice(None), slice(29, None)):  # the full set, and a short last slice
            first, second = d.rows(index), d.rows(index)
            assert first.dtype == second.dtype == np.float64
            assert first.tobytes() == second.tobytes() == expected[index].tobytes()
            assert not np.shares_memory(first, second)
            assert not np.shares_memory(first, d.features) and not np.shares_memory(second, d.features)


class TestMakeBlobs:
    # make_blobs trusts its arguments: BlobSpec refuses them when built, in test_harness.py's
    # TestRun::test_bad_blob_spec_rejected_when_built cases [spec0-positive] (per_class 0),
    # [spec1-at least classes] (dim below classes) and [spec2-separation] (negative separation)
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
        sizes = [x.shape[0] for x, _ in batches(d, 512, seed=1)]
        assert sizes == [512, 488]

    def test_every_sample_exactly_once(self):
        d = self.dataset(100)
        seen = []
        for x, y in batches(d, 32, seed=2):
            seen.extend(np.round(x[:, 0] * 100).astype(int).tolist())
            assert y.shape == (x.shape[0],)
        assert sorted(seen) == list(range(100))

    def test_labels_match_rows(self):
        d = self.dataset(50)
        for x, y in batches(d, 16, seed=4):
            idx = np.round(x[:, 0] * 50).astype(int)
            assert y.dtype == np.int64 and np.array_equal(y, d.labels[idx])

    def test_same_seed_reproduces_order(self):
        d = self.dataset(64)
        a = [x[:, 0].tolist() for x, _ in batches(d, 16, seed=5)]
        b = [x[:, 0].tolist() for x, _ in batches(d, 16, seed=5)]
        assert a == b

    def test_different_seeds_reshuffle(self):
        # harness.run passes each epoch its own seed
        d = self.dataset(64)
        a = [x[:, 0].tolist() for x, _ in batches(d, 64, seed=5)]
        b = [x[:, 0].tolist() for x, _ in batches(d, 64, seed=6)]
        assert a != b


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
        x = train.rows(slice(None))
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert not np.isnan(x).any()
        if not using_real_cifar:
            # the generated corpus pins record 0 all-white and record 1 all-black
            assert np.array_equal(x[0], np.ones(3072))
            assert np.array_equal(x[1], np.zeros(3072))

    def test_byte_255_maps_to_exactly_one(self, cifar_dir):
        train, _ = load_cifar10(cifar_dir)
        top = train.rows(slice(None)).max()
        assert top == 1.0  # 255/255, no rounding residue

    def test_pixels_are_a_view_of_one_record_buffer(self, cifar_dir):
        train, val = load_cifar10(cifar_dir)
        for d in (train, val):
            assert d.features.dtype == np.uint8 and d.features.shape == (d.n, 3072)
            assert d.features.strides == (RECORD_BYTES, 1)
            assert d.features.base.shape == (d.n, RECORD_BYTES)
        assert train.features.nbytes == 50_000 * 3072

    def test_home_directory_expanded(self, cifar_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        (tmp_path / "corpus").mkdir()
        for name in (*TRAIN_FILES, TEST_FILE):
            (tmp_path / "corpus" / name).symlink_to(cifar_dir / name)
        train, val = load_cifar10("~/corpus")
        assert train.n == 50_000 and val.n == 10_000
        missing = re.escape(str(tmp_path / "absent" / TRAIN_FILES[0]))
        with pytest.raises(ValueError, match=missing):
            load_cifar10("~/absent")

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ValueError, match="data_batch_1.bin"):
            load_cifar10(tmp_path)

    @staticmethod
    def corpus_with(cifar_dir, tmp_path, name, edit):
        """tmp_path with the six files linked from cifar_dir, except `name`, a copy that `edit(fh)` changed."""
        for other in (*TRAIN_FILES, TEST_FILE):
            if other == name:
                shutil.copy(cifar_dir / other, tmp_path / other)
                with open(tmp_path / other, "r+b") as fh:
                    edit(fh)
            else:
                (tmp_path / other).symlink_to(cifar_dir / other)
        return tmp_path

    def test_truncated_file_rejected(self, cifar_dir, tmp_path):
        corpus = self.corpus_with(cifar_dir, tmp_path, TRAIN_FILES[2], lambda fh: fh.truncate(FILE_BYTES - 1))
        with pytest.raises(ValueError, match=f"expected {FILE_BYTES} bytes, found {FILE_BYTES - 1}"):
            load_cifar10(corpus)

    def test_over_long_file_rejected(self, cifar_dir, tmp_path):
        corpus = self.corpus_with(cifar_dir, tmp_path, TRAIN_FILES[4], lambda fh: (fh.seek(0, 2), fh.write(b"\0")))
        with pytest.raises(ValueError, match=f"{TRAIN_FILES[4]}: expected {FILE_BYTES} bytes, "
                                             f"found {FILE_BYTES + 1}"):
            load_cifar10(corpus)

    def test_short_read_rejected(self, cifar_dir, tmp_path, monkeypatch):
        # a file that shrinks after its size was taken: the read itself comes up short
        corpus = self.corpus_with(cifar_dir, tmp_path, TEST_FILE, lambda fh: fh.truncate(FILE_BYTES - 5))
        monkeypatch.setattr(data, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=FILE_BYTES)))
        with pytest.raises(ValueError, match=f"expected {FILE_BYTES} bytes, found {FILE_BYTES - 5}"):
            load_cifar10(corpus)

    def corrupt_label(self, cifar_dir, tmp_path, name):
        """Load with record 7's label byte set to 11 in `name`; the error must give its offset in that file."""
        corrupt_record = 7

        def corrupt(fh):
            fh.seek(corrupt_record * RECORD_BYTES)
            fh.write(b"\x0b")

        corpus = self.corpus_with(cifar_dir, tmp_path, name, corrupt)
        with pytest.raises(ValueError,
                           match=f"{name}: label byte 11 > 9 at offset {corrupt_record * RECORD_BYTES}$"):
            load_cifar10(corpus)

    def test_bad_label_byte_reported_with_offset(self, cifar_dir, tmp_path):
        self.corrupt_label(cifar_dir, tmp_path, TEST_FILE)

    def test_bad_label_offset_counts_from_its_own_file(self, cifar_dir, tmp_path):
        # data_batch_3.bin fills rows 20,000-29,999 of the train record buffer
        self.corrupt_label(cifar_dir, tmp_path, TRAIN_FILES[2])
