"""Seeded synthetic MNIST-shaped inputs, written as the four gzipped IDX files.

The real MNIST files are not shipped with the repository, so the benchmark
writes full-size stand-ins (60000 train / 10000 test images of 28x28
unsigned bytes) and lets the program read them through its own loader.
About 15% of the pixels are nonzero, close to real MNIST, so the gzip
payload and the decompression work are of a similar size. Each label is
encoded as a bright row, so training has something to learn.

The files are written in chunks so that generating them adds little to the
process's peak memory, which the benchmark reports as the program's.
"""

from __future__ import annotations

import gzip
from pathlib import Path

import numpy as np

N_TRAIN = 60000
N_TEST = 10000
ROWS = COLS = 28
NUM_CLASSES = 10
IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
FILES = {
    "train": ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
    "test": ("t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz"),
}
_CHUNK = 5000
_DARK_BELOW = 218  # uniform bytes under this become background: ~15% ink


def _header(magic: int, *dims: int) -> bytes:
    return b"".join(v.to_bytes(4, "big") for v in (magic, *dims))


def _write_split(directory: Path, split: str, count: int, rng: np.random.Generator) -> None:
    images_name, labels_name = FILES[split]
    labels = rng.integers(0, NUM_CLASSES, size=count).astype(np.uint8)
    with gzip.open(directory / images_name, "wb", compresslevel=1) as f:
        f.write(_header(IMAGE_MAGIC, count, ROWS, COLS))
        for start in range(0, count, _CHUNK):
            lab = labels[start : start + _CHUNK]
            img = rng.integers(0, 256, size=(len(lab), ROWS, COLS), dtype=np.uint8)
            img[img < _DARK_BELOW] = 0
            img[np.arange(len(lab)), 2 + 2 * lab.astype(np.int64), :] = rng.integers(
                200, 256, size=(len(lab), COLS), dtype=np.uint8
            )
            f.write(img.tobytes())
    with gzip.open(directory / labels_name, "wb", compresslevel=1) as f:
        f.write(_header(LABEL_MAGIC, count) + labels.tobytes())


def write_mnist_like(directory: Path, seed: int) -> None:
    """Write the four MNIST-named gzipped IDX files for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(key=seed))
    _write_split(directory, "train", N_TRAIN, rng)
    _write_split(directory, "test", N_TEST, rng)
