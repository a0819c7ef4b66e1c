"""MNIST ingestion: IDX files, row-wise sequences, deterministic batching.

Image files are the big-endian IDX container: magic 0x00000803, three
uint32 dims (count, rows, cols), then unsigned bytes. Label files use
magic 0x00000801 and one uint32 count; the magic's low byte is the number
of dims, so one parser reads both. Files whose first two bytes are
the gzip signature 0x1f 0x8b are decompressed transparently. Nothing here
touches the network; when files are missing the error carries download
instructions.

Each 28x28 image becomes a 28-step sequence of 28-dimensional rows (top to
bottom), scaled to [0, 1]. Training batches reshuffle every epoch from a
counter-based stream keyed by (seed, epoch); test order is never shuffled.
"""

from __future__ import annotations

import gzip
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .rng import TAG_SHUFFLE, stream

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
NUM_CLASSES = 10
READ_CHUNK = 1 << 16  # bytes per read while filling an array from an IDX file

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"
_FILES = (TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS)

FETCH_HINT = """\
Expected the four MNIST IDX files (optionally gzipped) under {directory}:
  {names}
Download them from an MNIST mirror, e.g.:
  for f in train-images-idx3-ubyte.gz train-labels-idx1-ubyte.gz \\
           t10k-images-idx3-ubyte.gz t10k-labels-idx1-ubyte.gz; do
    curl -fLO https://ossci-datasets.s3.amazonaws.com/mnist/$f
  done
(also mirrored at https://storage.googleapis.com/cvdf-datasets/mnist/)"""


class DataError(Exception):
    """Base class for dataset problems."""


class IdxFormatError(DataError):
    """Malformed IDX content."""


class MissingDataError(DataError):
    """Required dataset files are absent."""


@dataclass
class SequenceBatch:
    """A minibatch: inputs (size, T, n_in) in [0, 1], integer labels (size,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.labels) or len(self.labels) == 0:
            raise ValueError("batch inputs and labels must be nonempty and equal-length")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class Split:
    """All examples of one split: sequences (N, T, n_in), labels (N,)."""

    sequences: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class Dataset:
    train: Split
    test: Split


@contextmanager
def _open_idx(path: str | Path) -> Iterator[BinaryIO]:
    """Binary reader of an IDX file, gzipped or not.

    A path that cannot be opened (a directory, no permission) is a
    DataError; a bad gzip stream is an IdxFormatError.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            gzipped = f.read(2) == b"\x1f\x8b"
    except OSError as e:
        raise DataError(f"{path}: cannot read: {e.strerror or e}") from e
    if not gzipped:
        with open(path, "rb") as f:
            yield f
        return
    try:
        with gzip.open(path, "rb") as f:
            yield f
    except (OSError, EOFError) as e:
        raise IdxFormatError(f"{path}: cannot decompress: {e}") from e


def _read_payload(f: BinaryIO, size: int, header_size: int, path) -> np.ndarray:
    """The ``size`` bytes after the header as a new uint8 array; the file must end there.

    Bytes go straight into the array READ_CHUNK at a time, so the file's
    contents never also sit in memory as one bytes object. A size numpy
    cannot or this machine will not allocate is an IdxFormatError.
    """
    try:
        out = np.empty(size, dtype=np.uint8)
    except (ValueError, MemoryError) as e:
        raise IdxFormatError(f"{path}: header claims {size} payload bytes: {e}") from e
    view = memoryview(out)
    filled = 0
    while filled < size:
        got = f.readinto(view[filled : filled + READ_CHUNK])
        if not got:
            expected = header_size + size
            raise IdxFormatError(f"{path}: truncated at byte {header_size + filled}, expected {expected} bytes")
        filled += got
    trailing = 0
    while chunk := f.read(READ_CHUNK):
        trailing += len(chunk)
    if trailing:
        raise IdxFormatError(f"{path}: {trailing} trailing bytes after payload")
    return out


def _read_idx(path: str | Path, magic: int, kind: str) -> np.ndarray:
    """The uint8 array of an IDX file whose header is ``magic``, then as many dims as its low byte."""
    with _open_idx(path) as f:
        header_size = 4 * (1 + (magic & 0xFF))
        raw = f.read(header_size)
        if len(raw) < header_size:
            raise IdxFormatError(f"{path}: truncated header, file ends at byte {len(raw)}")
        found, *dims = (int.from_bytes(raw[i : i + 4], "big") for i in range(0, header_size, 4))
        if found != magic:
            raise IdxFormatError(f"{path}: magic {found} is not an IDX {kind} file ({magic})")
        return _read_payload(f, math.prod(dims), header_size, path).reshape(dims)


def read_idx_images(path: str | Path) -> np.ndarray:
    """Parse an IDX image file into a uint8 array of shape (count, rows, cols)."""
    return _read_idx(path, IMAGE_MAGIC, "image")


def read_idx_labels(path: str | Path) -> np.ndarray:
    """Parse an IDX label file into an int64 array; labels must be below 10."""
    labels = _read_idx(path, LABEL_MAGIC, "label")
    if labels.size and int(labels.max()) >= NUM_CLASSES:
        bad = int(np.argmax(labels >= NUM_CLASSES))
        raise IdxFormatError(f"{path}: label {int(labels[bad])} at index {bad} is out of range")
    return labels.astype(np.int64)


def to_sequences(images: np.ndarray, labels: np.ndarray, limit: int | None = None) -> Split:
    """Row-wise sequences: image row r becomes step r, pixels scaled by 1/255."""
    if len(images) != len(labels):
        raise DataError(f"count mismatch: {len(images)} images vs {len(labels)} labels")
    if limit is not None:
        images = images[:limit]
        labels = labels[:limit]
    return Split(
        sequences=images.astype(np.float64) / 255.0,
        labels=np.asarray(labels, dtype=np.int64).copy(),
    )


def batches(split: Split, batch_size: int, seed: int, epoch: int) -> list[SequenceBatch]:
    """Deterministic per-epoch shuffle, cut into batches; the short tail is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    perm = stream(seed, TAG_SHUFFLE, epoch).permutation(len(split))
    out = []
    for start in range(0, len(perm), batch_size):
        idx = perm[start : start + batch_size]
        out.append(SequenceBatch(inputs=split.sequences[idx], labels=split.labels[idx]))
    return out


def _resolve(directory: Path, stem: str) -> Path:
    for name in (stem, stem + ".gz"):
        candidate = directory / name
        if candidate.exists():
            return candidate
    raise MissingDataError(
        f"{directory / stem}[.gz] not found.\n"
        + FETCH_HINT.format(directory=directory, names=", ".join(_FILES))
    )


def load_dataset(
    data_dir: str | Path,
    train_limit: int | None = None,
    test_limit: int | None = None,
) -> Dataset:
    """Load the four standard MNIST files from a directory, checked by ``check_dataset``."""
    train_images, train_labels, test_images, test_labels = (_resolve(Path(data_dir), stem) for stem in _FILES)
    dataset = Dataset(
        train=to_sequences(read_idx_images(train_images), read_idx_labels(train_labels), train_limit),
        test=to_sequences(read_idx_images(test_images), read_idx_labels(test_labels), test_limit),
    )
    check_dataset(dataset)
    return dataset


def check_dataset(dataset: Dataset) -> None:
    """Raise DataError unless both splits hold at least one image of nonzero
    size and their images have the same shape."""
    for name, split in (("train", dataset.train), ("test", dataset.test)):
        if split.sequences.size == 0:
            n, rows, cols = split.sequences.shape
            raise DataError(f"the {name} split holds {n} images of {rows}x{cols} pixels: nothing to learn from")
    if dataset.train.sequences.shape[1:] != dataset.test.sequences.shape[1:]:
        shapes = ["x".join(map(str, s.sequences.shape[1:])) for s in (dataset.train, dataset.test)]
        raise DataError(f"train images are {shapes[0]} pixels but test images {shapes[1]}")
