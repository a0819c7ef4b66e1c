import gzip

import numpy as np
import pytest

from slimrnn.data import (
    IdxFormatError,
    MissingDataError,
    READ_CHUNK,
    Split,
    batches,
    load_dataset,
    read_idx_images,
    read_idx_labels,
    to_sequences,
)

from .conftest import synth_images, write_idx_images, write_idx_labels, write_mnist_dir


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_idx_image_round_trip(tmp_path, suffix):
    images = np.arange(3 * 4 * 5, dtype=np.uint8).reshape(3, 4, 5)
    path = tmp_path / ("imgs" + suffix)
    write_idx_images(path, images)
    back = read_idx_images(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, images)


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_idx_label_round_trip(tmp_path, suffix):
    labels = np.array([0, 9, 3, 7], dtype=np.uint8)
    path = tmp_path / ("labels" + suffix)
    write_idx_labels(path, labels)
    assert np.array_equal(read_idx_labels(path), labels)


def test_gzip_detected_by_content_not_name(tmp_path):
    images = np.full((2, 3, 3), 17, dtype=np.uint8)
    plain = tmp_path / "plain"
    write_idx_images(plain, images)
    disguised = tmp_path / "no-extension"
    disguised.write_bytes(gzip.compress(plain.read_bytes()))
    assert np.array_equal(read_idx_images(disguised), images)


def test_corrupt_gzip_is_a_format_error(tmp_path):
    path = tmp_path / "imgs.gz"
    write_idx_images(path, np.zeros((2, 3, 3), dtype=np.uint8))
    path.write_bytes(path.read_bytes()[:10])  # keeps the 1f8b signature
    with pytest.raises(IdxFormatError, match="decompress"):
        read_idx_images(path)


def test_empty_image_file_is_valid(tmp_path):
    path = tmp_path / "empty"
    write_idx_images(path, np.zeros((0, 28, 28), dtype=np.uint8))
    assert read_idx_images(path).shape == (0, 28, 28)


def test_image_reader_rejects_label_magic(tmp_path):
    path = tmp_path / "labels"
    write_idx_labels(path, np.array([1, 2], dtype=np.uint8))
    with pytest.raises(IdxFormatError):
        read_idx_images(path)


def test_label_reader_rejects_image_magic(tmp_path):
    path = tmp_path / "imgs"
    write_idx_images(path, np.zeros((1, 2, 2), dtype=np.uint8))
    with pytest.raises(IdxFormatError):
        read_idx_labels(path)


def test_truncated_image_file_reports_offset(tmp_path):
    path = tmp_path / "imgs"
    write_idx_images(path, np.zeros((2, 3, 3), dtype=np.uint8))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(IdxFormatError, match=rf"byte {len(data) - 5}"):
        read_idx_images(path)


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_image_file_longer_than_one_read_chunk(tmp_path, suffix):
    images = np.arange(3 * READ_CHUNK, dtype=np.uint64).astype(np.uint8).reshape(-1, 32, 32)
    path = tmp_path / ("imgs" + suffix)
    write_idx_images(path, images)
    assert np.array_equal(read_idx_images(path), images)
    if not suffix:
        path.write_bytes(path.read_bytes()[: 16 + READ_CHUNK + 7])
        with pytest.raises(IdxFormatError, match=rf"byte {16 + READ_CHUNK + 7}, expected {16 + images.size}"):
            read_idx_images(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "imgs"
    write_idx_images(path, np.zeros((2, 3, 3), dtype=np.uint8))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(IdxFormatError, match="trailing"):
        read_idx_images(path)


def test_out_of_range_label_rejected(tmp_path):
    path = tmp_path / "labels"
    write_idx_labels(path, np.array([1, 10, 2], dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="label 10"):
        read_idx_labels(path)


def test_to_sequences_count_mismatch():
    with pytest.raises(Exception, match="count mismatch"):
        to_sequences(np.zeros((2, 3, 3), dtype=np.uint8), np.zeros(3, dtype=np.uint8))


def test_to_sequences_normalization():
    images = np.zeros((1, 28, 28), dtype=np.uint8)
    images[0, 3, 5] = 128
    split = to_sequences(images, np.array([7]))
    seq = split.sequences[0]
    assert seq[3, 5] == pytest.approx(0.5019607843137255, abs=1e-15)
    assert seq.sum() == pytest.approx(seq[3, 5])
    full = to_sequences(np.full((1, 2, 2), 255, dtype=np.uint8), np.array([0]))
    assert np.array_equal(full.sequences[0], np.ones((2, 2)))
    zero = to_sequences(np.zeros((1, 2, 2), dtype=np.uint8), np.array([0]))
    assert not np.any(zero.sequences)


def test_to_sequences_limit_is_prefix():
    images, labels = synth_images(10, seed=0, rows=4, cols=4)
    split = to_sequences(images, labels, limit=4)
    assert len(split) == 4
    assert np.array_equal(split.labels, labels[:4])



def test_batches_short_split_single_batch():
    sequences = np.zeros((10, 4, 4))
    split_labels = np.arange(10, dtype=np.int64) % 10
    split = Split(sequences=sequences, labels=split_labels)
    got = batches(split, batch_size=32, seed=0, epoch=1)
    assert len(got) == 1
    assert len(got[0]) == 10


def test_batches_partition_all_examples_once():
    n = 64
    sequences = np.zeros((n, 2, 2))
    sequences[:, 0, 0] = np.arange(n)  # tag each example
    split = Split(sequences=sequences, labels=np.arange(n, dtype=np.int64) % 10)
    got = batches(split, batch_size=32, seed=3, epoch=2)
    assert [len(b) for b in got] == [32, 32]
    seen = sorted(int(v) for b in got for v in b.inputs[:, 0, 0])
    assert seen == list(range(n))


def test_batches_deterministic_per_seed_epoch():
    n = 40
    sequences = np.zeros((n, 2, 2))
    sequences[:, 0, 0] = np.arange(n)
    split = Split(sequences=sequences, labels=np.zeros(n, dtype=np.int64))

    def order(seed, epoch):
        return [int(v) for b in batches(split, 16, seed, epoch) for v in b.inputs[:, 0, 0]]

    assert order(5, 3) == order(5, 3)
    assert order(5, 3) != order(5, 4)
    assert order(5, 3) != order(6, 3)


def test_batches_rejects_bad_batch_size():
    split = Split(sequences=np.zeros((4, 2, 2)), labels=np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        batches(split, 0, seed=0, epoch=0)


def test_load_dataset_from_directory(tmp_path):
    write_mnist_dir(tmp_path, n_train=12, n_test=6)
    ds = load_dataset(tmp_path, train_limit=10, test_limit=None)
    assert len(ds.train) == 10
    assert len(ds.test) == 6
    assert ds.train.sequences.shape[1:] == (28, 28)
    assert ds.train.sequences.min() >= 0.0
    assert ds.train.sequences.max() <= 1.0


def test_load_dataset_missing_files_has_fetch_hint(tmp_path):
    with pytest.raises(MissingDataError, match="curl"):
        load_dataset(tmp_path / "nowhere")
