import gzip
import re

import numpy as np
import pytest

from slimrnn.cli import main
from slimrnn.data import (
    READ_CHUNK,
    TEST_IMAGES,
    TEST_LABELS,
    TRAIN_IMAGES,
    TRAIN_LABELS,
    DataError,
    IdxFormatError,
    MissingDataError,
    Split,
    batches,
    load_dataset,
    read_idx_images,
    read_idx_labels,
    scaled,
)

from .conftest import invert_40_to_59, synth_images, traced_peak_mb, write_idx_images, write_idx_labels, write_mnist_dir


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_idx_image_round_trip(tmp_path, suffix):
    images = np.arange(3 * 4 * 5, dtype=np.uint8).reshape(3, 4, 5)
    path = tmp_path / ("imgs" + suffix)
    write_idx_images(path, images)
    back, count = read_idx_images(path)
    assert back.dtype == np.uint8
    assert count == 3
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
    assert np.array_equal(read_idx_images(disguised)[0], images)


@pytest.mark.parametrize("images, spoil", [
    (np.zeros((2, 3, 3), dtype=np.uint8), lambda raw: raw[:10]),  # keeps the 1f8b signature, ends early
    (synth_images(64, 0)[0], invert_40_to_59),  # a zlib.error, not an OSError
], ids=["truncated", "does-not-inflate"])
def test_corrupt_gzip_is_a_format_error(tmp_path, images, spoil):
    path = tmp_path / "imgs.gz"
    write_idx_images(path, images)
    path.write_bytes(spoil(path.read_bytes()))
    with pytest.raises(IdxFormatError, match="decompress"):
        read_idx_images(path)


def test_empty_image_file_is_valid(tmp_path):
    path = tmp_path / "empty"
    write_idx_images(path, np.zeros((0, 28, 28), dtype=np.uint8))
    images, count = read_idx_images(path)
    assert images.shape == (0, 28, 28) and count == 0


def test_image_reader_rejects_label_magic(tmp_path):
    path = tmp_path / "labels"
    write_idx_labels(path, np.arange(8, dtype=np.uint8))  # 16 bytes: a whole image header
    with pytest.raises(IdxFormatError, match="magic 2049 is not an IDX image file"):
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
    assert np.array_equal(read_idx_images(path)[0], images)
    for limit in (1, 100):  # the kept prefix ends inside the first and inside the second chunk
        kept, count = read_idx_images(path, limit)
        assert count == len(images) and np.array_equal(kept, images[:limit])
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


# (reader, file the reader is given, how its bytes are cut or padded, the error's wording)
IDX_FORMAT_ERRORS = {
    "image-header-truncated": (read_idx_images, "images", lambda b: b[:10], "truncated header, file ends at byte 10"),
    "label-header-truncated": (read_idx_labels, "labels", lambda b: b[:5], "truncated header, file ends at byte 5"),
    "labels-given-as-images": (read_idx_images, "labels", lambda b: b,
                               r"magic 2049 is not an IDX image file \(2051\)"),
    "images-given-as-labels": (read_idx_labels, "images", lambda b: b,
                               r"magic 2051 is not an IDX label file \(2049\)"),
    "label-payload-truncated": (read_idx_labels, "labels", lambda b: b[:-3], "truncated at byte 15, expected 18 bytes"),
    "label-trailing-bytes": (read_idx_labels, "labels", lambda b: b + b"\0\0", "2 trailing bytes after payload"),
}


@pytest.mark.parametrize("case", IDX_FORMAT_ERRORS)
def test_idx_format_errors_keep_their_wording(tmp_path, case):
    reader, name, cut, wording = IDX_FORMAT_ERRORS[case]
    write_idx_images(tmp_path / "images", np.zeros((2, 3, 3), dtype=np.uint8))  # 16 + 18 bytes
    write_idx_labels(tmp_path / "labels", np.arange(10, dtype=np.uint8))  # 8 + 10 bytes
    path = tmp_path / name
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(IdxFormatError, match=re.escape(f"{path}: ") + wording + "$"):
        reader(path)


def tagged_split(n: int) -> Split:
    """n uint8 examples of 2x2 pixels whose first pixel is the example's index."""
    sequences = np.zeros((n, 2, 2), dtype=np.uint8)
    sequences[:, 0, 0] = np.arange(n)
    return Split(sequences=sequences, labels=np.arange(n, dtype=np.int64) % 10)


def tags(got) -> list[int]:
    """The indices tagged into a split's examples, back from each scaled batch, in order."""
    return [int(round(v * 255)) for b in got for v in b.inputs[:, 0, 0]]


def test_to_sequences_normalization():
    images = np.zeros((1, 28, 28), dtype=np.uint8)
    images[0, 3, 5] = 128
    seq = scaled(images)[0]
    assert seq.dtype == np.float64
    assert seq[3, 5] == pytest.approx(0.5019607843137255, abs=1e-15)
    assert seq.sum() == pytest.approx(seq[3, 5])
    assert np.array_equal(scaled(np.full((1, 2, 2), 255, dtype=np.uint8)), np.ones((1, 2, 2)))
    assert not np.any(scaled(np.zeros((1, 2, 2), dtype=np.uint8)))
    every = np.arange(256, dtype=np.uint8)
    assert scaled(every).tobytes() == (every.astype(np.float64) / 255.0).tobytes()
    already = np.linspace(0.0, 1.0, 5)
    assert scaled(already) is already


def test_batches_short_split_single_batch():
    split = Split(sequences=np.zeros((10, 4, 4), dtype=np.uint8), labels=np.arange(10, dtype=np.int64) % 10)
    got = batches(split, batch_size=32, seed=0, epoch=1)
    assert len(got) == 1
    assert len(got[0]) == 10


def test_batches_partition_all_examples_once():
    n = 64
    got = batches(tagged_split(n), batch_size=32, seed=3, epoch=2)
    assert [len(b) for b in got] == [32, 32]
    assert sorted(tags(got)) == list(range(n))


def test_batches_deterministic_per_seed_epoch():
    split = tagged_split(40)

    def order(seed, epoch):
        return tags(batches(split, 16, seed, epoch))

    assert order(5, 3) == order(5, 3)
    assert order(5, 3) != order(5, 4)
    assert order(5, 3) != order(6, 3)


def test_batches_rejects_bad_batch_size():
    split = Split(sequences=np.zeros((4, 2, 2), dtype=np.uint8), labels=np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        batches(split, 0, seed=0, epoch=0)


def test_batches_is_a_read_only_sequence_scaled_on_access():
    split = tagged_split(70)
    got = batches(split, batch_size=32, seed=1, epoch=1)
    assert len(got) == 3 and [len(b) for b in got] == [32, 32, 6]
    assert tags([got[-1]]) == tags([got[2]]) and tags([got[-3]]) == tags([got[0]])
    assert tags([got[0]]) == tags(batches(split, 32, seed=1, epoch=1))[:32]
    for k in (3, -4):
        with pytest.raises(IndexError):
            got[k]
    with pytest.raises(TypeError):
        got[0] = got[1]
    assert got[0].inputs.dtype == np.float64 and got[0].inputs is not got[0].inputs


def test_load_dataset_from_directory(tmp_path):
    write_mnist_dir(tmp_path, n_train=12, n_test=6)
    ds = load_dataset(tmp_path, train_limit=10, test_limit=None)
    assert len(ds.train) == 10
    assert len(ds.test) == 6
    assert ds.train.sequences.shape[1:] == (28, 28)
    assert ds.train.sequences.dtype == np.uint8 and ds.test.sequences.dtype == np.uint8
    for batch in batches(ds.train, 4, seed=0, epoch=1):
        assert batch.inputs.dtype == np.float64
        assert batch.inputs.min() >= 0.0
        assert batch.inputs.max() <= 1.0


def test_load_dataset_missing_files_has_fetch_hint(tmp_path):
    with pytest.raises(MissingDataError, match="curl"):
        load_dataset(tmp_path / "nowhere")


def _gzip_mnist_dir(directory) -> None:
    """Replace the four plain MNIST files in ``directory`` by gzipped ones."""
    for stem in (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS):
        (directory / (stem + ".gz")).write_bytes(gzip.compress((directory / stem).read_bytes()))
        (directory / stem).unlink()


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_load_dataset_limit_is_prefix(tmp_path, suffix):
    write_mnist_dir(tmp_path, n_train=12, n_test=6)
    if suffix:
        _gzip_mnist_dir(tmp_path)
    full = load_dataset(tmp_path)
    for n, m in ((5, 2), (12, 6), (40, 9)):  # below, equal to and above each split's count
        cut = load_dataset(tmp_path, n, m)
        for got, whole, limit in ((cut.train, full.train, n), (cut.test, full.test, m)):
            want = whole.sequences[:limit]
            assert got.sequences.shape == want.shape and got.sequences.tobytes() == want.tobytes()
            assert got.labels.dtype == np.int64 and np.array_equal(got.labels, whole.labels[:limit])
    empty = tmp_path / ("empty" + suffix)
    write_idx_images(empty, np.zeros((0, 28, 28)))
    for limit in (None, 1):
        images, count = read_idx_images(empty, limit)
        assert images.shape == (0, 28, 28) and count == 0


@pytest.mark.parametrize("limits", [(-1, 5), (5, -1)])
def test_negative_limit_is_rejected_before_the_file_is_read(tmp_path, limits):
    write_mnist_dir(tmp_path, n_train=12, n_test=6)
    with pytest.raises(ValueError, match="limit -1 is negative"):
        load_dataset(tmp_path, *limits)
    # a path that cannot be opened would raise DataError if it were tried
    with pytest.raises(ValueError, match="limit -1 is negative"):
        read_idx_images(tmp_path / "nowhere", -1)


def test_limit_zero_keeps_no_image_and_reports_the_count(tmp_path):
    write_mnist_dir(tmp_path, n_train=12, n_test=6)
    images, count = read_idx_images(tmp_path / TRAIN_IMAGES, 0)
    assert images.shape == (0, 28, 28) and images.dtype == np.uint8 and count == 12


# fault past a limit of 2 -> (file it spoils, how its 8-example bytes are cut or padded, the error's wording)
FAULTS_PAST_THE_LIMIT = {
    "image-payload-truncated": (TRAIN_IMAGES, lambda b: b[:-5], "truncated at byte 6283, expected 6288 bytes"),
    "image-trailing-bytes": (TRAIN_IMAGES, lambda b: b + b"\0", "1 trailing bytes after payload"),
    "label-out-of-range": (TRAIN_LABELS, lambda b: b[:-1] + b"\x0a", "label 10 at index 7 is out of range"),
    "count-mismatch": (TRAIN_LABELS, lambda b: b[:4] + (7).to_bytes(4, "big") + b[8:-1],
                       "count mismatch: 8 images vs 7 labels"),
}


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize("fault", FAULTS_PAST_THE_LIMIT)
def test_faults_past_the_limit_fail_as_without_one(tmp_path, fault, suffix):
    name, cut, wording = FAULTS_PAST_THE_LIMIT[fault]
    write_mnist_dir(tmp_path, n_train=8, n_test=8)
    path = tmp_path / name
    path.write_bytes(cut(path.read_bytes()))
    if suffix:
        _gzip_mnist_dir(tmp_path)
    errors = []
    for limits in ((None, None), (2, 2)):
        with pytest.raises(DataError) as raised:
            load_dataset(tmp_path, *limits)
        errors.append((type(raised.value), str(raised.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].endswith(wording)
    out = tmp_path / "out.csv"
    args = ["--variant", "lstm6", "--activation", "tanh", "--epochs", "1", "--hidden", "4", "--train-limit", "2"]
    assert main(["train", *args, "--data-dir", str(tmp_path), "--out", str(out)]) == 3
    assert not out.exists()


def test_limited_load_allocates_only_the_kept_prefix(tmp_path):
    write_mnist_dir(tmp_path, n_train=4000, n_test=8)  # a 3.1 MB train payload
    _gzip_mnist_dir(tmp_path)
    assert traced_peak_mb(lambda: load_dataset(tmp_path, 4, 4)) < 0.5
    assert traced_peak_mb(lambda: load_dataset(tmp_path)) >= 4000 * 28 * 28 / 1e6
