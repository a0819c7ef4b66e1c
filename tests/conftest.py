import gzip
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from slimrnn.cells import Activation
from slimrnn.cli import _pin_blas
from slimrnn.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    TEST_IMAGES,
    TEST_LABELS,
    TRAIN_IMAGES,
    TRAIN_LABELS,
    Dataset,
    SequenceBatch,
    Split,
)
from slimrnn.gradcheck import CheckResult, check_all
from slimrnn.rng import stream

# One BLAS thread, as every CLI command runs: the bit fixtures hold only there, whatever test ran first.
_pin_blas()

TAG_SYNTH = 4  # the synthetic datasets' purpose tag, apart from every tag in slimrnn.rng


def write_idx_images(path, images: np.ndarray) -> None:
    """Inverse of read_idx_images; gzips when path ends in .gz."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("images must have shape (count, rows, cols)")
    header = b"".join(v.to_bytes(4, "big") for v in (IMAGE_MAGIC, *images.shape))
    _write_bytes(path, header + images.tobytes())


def write_idx_labels(path, labels) -> None:
    """Inverse of read_idx_labels; gzips when path ends in .gz."""
    arr = np.asarray(labels)
    header = LABEL_MAGIC.to_bytes(4, "big") + len(arr).to_bytes(4, "big")
    _write_bytes(path, header + arr.astype(np.uint8).tobytes())


def _write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wb") as f:
            f.write(payload)
    else:
        path.write_bytes(payload)


def invert_40_to_59(raw: bytes) -> bytes:
    """``raw`` with bytes 40-59 inverted: in a gzipped IDX file, a deflate stream that no longer inflates."""
    return raw[:40] + bytes(255 - b for b in raw[40:60]) + raw[60:]


def check_one(variant, activation, **kwargs) -> CheckResult:
    """``activation``'s result of ``check_all(variants=(variant,), **kwargs)``, which checks them all, at one seed."""
    [result] = [r for r in check_all(variants=(variant,), **kwargs) if r.activation is Activation(activation)]
    return result


def seeded_batch(key, B: int, T: int, n_in: int, n_out: int) -> SequenceBatch:
    """B sequences of uniform [0, 1) inputs and then their labels, drawn from ``default_rng(list(key))``."""
    rng = np.random.default_rng(list(key))
    return SequenceBatch(inputs=rng.uniform(0.0, 1.0, size=(B, T, n_in)), labels=rng.integers(0, n_out, size=B))


def synth_images(n: int, seed: int, rows: int = 28, cols: int = 28) -> tuple[np.ndarray, np.ndarray]:
    """Random uint8 images whose label is encoded as a bright stripe position."""
    rng = stream(seed, TAG_SYNTH)
    images = rng.integers(0, 26, size=(n, rows, cols), dtype=np.int64)
    labels = rng.integers(0, 10, size=n)
    for i in range(n):
        images[i, (2 + 2 * int(labels[i])) % rows, :] = rng.integers(200, 256, size=cols)
    return images.astype(np.uint8), labels.astype(np.int64)


def synth_split(n: int, seed: int, rows: int = 28, cols: int = 28) -> Split:
    images, labels = synth_images(n, seed, rows, cols)
    return Split(sequences=images, labels=labels)


def synth_dataset(n_train: int, n_test: int, seed: int = 0) -> Dataset:
    return Dataset(train=synth_split(n_train, seed), test=synth_split(n_test, seed + 1))


def traced_peak_mb(fn) -> float:
    """Peak memory ``fn()`` allocates above what was live before it, in MB.

    numpy reports its array buffers to tracemalloc, so this counts them
    (it does not time anything).
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def write_mnist_dir(directory, n_train: int, n_test: int, seed: int = 0) -> None:
    """Write the four standard IDX files with synthetic content."""
    train_images, train_labels = synth_images(n_train, seed)
    test_images, test_labels = synth_images(n_test, seed + 1)
    write_idx_images(directory / TRAIN_IMAGES, train_images)
    write_idx_labels(directory / TRAIN_LABELS, train_labels)
    write_idx_images(directory / TEST_IMAGES, test_images)
    write_idx_labels(directory / TEST_LABELS, test_labels)


@pytest.fixture
def mnist_like_dir(tmp_path):
    write_mnist_dir(tmp_path, n_train=48, n_test=16)
    return tmp_path
