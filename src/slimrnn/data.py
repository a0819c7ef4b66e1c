"""MNIST ingestion: IDX files, row-wise sequences, deterministic batching.

Image files are the big-endian IDX container: magic 0x00000803, three
uint32 dims (count, rows, cols), then unsigned bytes. Label files use
magic 0x00000801 and one uint32 count; the magic's low byte is the number
of dims, so one parser reads both. Files whose first two bytes are
the gzip signature 0x1f 0x8b are decompressed transparently. Under a
limit only the kept prefix of images is held; the whole stream is still
read and checked. Nothing here touches the network; when files are
missing the error carries download instructions.

Each 28x28 image is a 28-step sequence of 28-dimensional rows (top to
bottom). A split holds its pixels as the uint8 array the reader returns;
``scaled`` turns each batch or evaluation chunk into float64 in [0, 1] as
it is used, so a full-size split never sits in memory as float64 (one
60,000-image float64 copy is 376 MB). Training batches reshuffle every
epoch from a counter-based stream keyed by (seed, epoch); test order is
never shuffled.
"""

from __future__ import annotations

import gzip
import math
import zlib
from collections.abc import Iterator, Sequence
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
    """All examples of one split: sequences (N, T, n_in) of uint8 pixels, labels (N,).

    An injected split may instead hold float64 pixels already scaled to
    [0, 1]; ``scaled`` passes those through (``check_dataset`` enforces both).
    """

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
    """Binary reader of an IDX file, gzipped or not, from one open of ``path``.

    A path that cannot be opened (a directory, no permission) is a
    DataError; a bad gzip stream is an IdxFormatError.
    """
    path = Path(path)
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"{path}: cannot read: {e.strerror or e}") from e
    with f:
        if f.peek(2)[:2] != b"\x1f\x8b":  # the gzip signature, sniffed without moving the reader
            yield f
            return
        try:
            with gzip.GzipFile(fileobj=f) as z:
                yield z
        except (OSError, EOFError, zlib.error) as e:
            raise IdxFormatError(f"{path}: cannot decompress: {e}") from e


def _read_payload(f: BinaryIO, size: int, kept: int, header_size: int, path) -> np.ndarray:
    """The first ``kept`` of the ``size`` bytes after the header as a new uint8 array; the file must end there.

    Bytes go straight into the array READ_CHUNK at a time, so the file's
    contents never also sit in memory as one bytes object; the bytes past
    ``kept`` pass through one reused READ_CHUNK buffer, so they are checked
    but never held. A size numpy cannot or this machine will not allocate
    is an IdxFormatError.
    """
    try:
        out = np.empty(kept, dtype=np.uint8)
    except (ValueError, MemoryError) as e:
        raise IdxFormatError(f"{path}: header claims {size} payload bytes: {e}") from e
    view, spare = memoryview(out), memoryview(bytearray(READ_CHUNK))
    filled = 0
    while filled < size:
        got = f.readinto(view[filled : filled + READ_CHUNK] if filled < kept else spare[: size - filled])
        if not got:
            expected = header_size + size
            raise IdxFormatError(f"{path}: truncated at byte {header_size + filled}, expected {expected} bytes")
        filled += got
    trailing = 0
    while got := f.readinto(spare):
        trailing += got
    if trailing:
        raise IdxFormatError(f"{path}: {trailing} trailing bytes after payload")
    return out


def _read_idx(path: str | Path, magic: int, kind: str, limit: int | None = None) -> tuple[np.ndarray, int]:
    """The first ``limit`` entries (all when None) of an IDX file whose header is ``magic``,
    then as many dims as its low byte, and the count its header claims."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit {limit} is negative: give a count of at least 0, or None for all")
    with _open_idx(path) as f:
        header_size = 4 * (1 + (magic & 0xFF))
        raw = f.read(header_size)
        if len(raw) < header_size:
            raise IdxFormatError(f"{path}: truncated header, file ends at byte {len(raw)}")
        found, count, *shape = (int.from_bytes(raw[i : i + 4], "big") for i in range(0, header_size, 4))
        if found != magic:
            raise IdxFormatError(f"{path}: magic {found} is not an IDX {kind} file ({magic})")
        kept = count if limit is None else min(limit, count)
        payload = _read_payload(f, count * math.prod(shape), kept * math.prod(shape), header_size, path)
        return payload.reshape(kept, *shape), count


def read_idx_images(path: str | Path, limit: int | None = None) -> tuple[np.ndarray, int]:
    """The first ``limit`` images (all when None) of an IDX image file as a uint8
    array of shape (kept, rows, cols), and the image count its header claims."""
    return _read_idx(path, IMAGE_MAGIC, "image", limit)


def read_idx_labels(path: str | Path) -> np.ndarray:
    """Parse an IDX label file into an int64 array; labels must be below 10."""
    labels, _ = _read_idx(path, LABEL_MAGIC, "label")
    if labels.size and int(labels.max()) >= NUM_CLASSES:
        bad = int(np.argmax(labels >= NUM_CLASSES))
        raise IdxFormatError(f"{path}: label {int(labels[bad])} at index {bad} is out of range")
    return labels.astype(np.int64)


def scaled(pixels: np.ndarray) -> np.ndarray:
    """Pixels as the engine takes them: float64 in [0, 1], uint8 ones divided by 255.

    The only place that knows the scale. Each batch or chunk is scaled on
    its own, which gives bitwise the values of scaling the whole split.
    float64 pixels are taken as already scaled and returned as they are.
    """
    if pixels.dtype != np.uint8:
        return pixels
    out = pixels.astype(np.float64)
    out /= 255.0
    return out


class _EpochBatches(Sequence):
    """One epoch's batches, read-only and lazy: batch k is cut from the
    permutation and scaled only when it is accessed."""

    def __init__(self, split: Split, batch_size: int, perm: np.ndarray):
        self._split, self._size, self._perm = split, batch_size, perm

    def __len__(self) -> int:
        return -(-len(self._perm) // self._size)

    def __getitem__(self, k: int) -> SequenceBatch:
        n = len(self)
        if not -n <= k < n:
            raise IndexError(f"batch {k} of an epoch of {n}")
        idx = self._perm[(k % n) * self._size :][: self._size]
        return SequenceBatch(inputs=scaled(self._split.sequences[idx]), labels=self._split.labels[idx])


def batches(split: Split, batch_size: int, seed: int, epoch: int) -> Sequence[SequenceBatch]:
    """Deterministic per-epoch shuffle, cut into batches; the short tail is kept.

    Only the permutation is built here; each batch is copied out of the
    split and scaled when it is read, so iterating holds about one batch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    return _EpochBatches(split, batch_size, stream(seed, TAG_SHUFFLE, epoch).permutation(len(split)))


def _resolve(directory: Path, stem: str) -> Path:
    for name in (stem, stem + ".gz"):
        candidate = directory / name
        if candidate.exists():
            return candidate
    raise MissingDataError(
        f"{directory / stem}[.gz] not found.\n"
        + FETCH_HINT.format(directory=directory, names=", ".join(_FILES))
    )


def _read_split(images_path: Path, labels_path: Path, limit: int | None) -> Split:
    """The first ``limit`` examples (all when None) of an image and a label file
    whose headers claim the same count."""
    images, count = read_idx_images(images_path, limit)
    labels = read_idx_labels(labels_path)
    if count != len(labels):
        raise DataError(f"count mismatch: {count} images vs {len(labels)} labels")
    return Split(sequences=images, labels=labels[: len(images)].copy())


def load_dataset(
    data_dir: str | Path,
    train_limit: int | None = None,
    test_limit: int | None = None,
) -> Dataset:
    """Load the four standard MNIST files from a directory, checked by ``check_dataset``."""
    train_images, train_labels, test_images, test_labels = (_resolve(Path(data_dir), stem) for stem in _FILES)
    dataset = Dataset(
        train=_read_split(train_images, train_labels, train_limit),
        test=_read_split(test_images, test_labels, test_limit),
    )
    check_dataset(dataset)
    return dataset


def check_dataset(dataset: Dataset) -> None:
    """Raise DataError, naming the split, unless both splits hold at least
    one image of nonzero size as (images, rows, cols) pixels and one integer
    label in [0, NUM_CLASSES) per image, their images have the same shape,
    and their pixels are uint8 or float64 already scaled to [0, 1]
    (anything else would be scaled wrongly)."""
    for name, split in (("train", dataset.train), ("test", dataset.test)):
        pixels, labels = split.sequences, split.labels
        if pixels.ndim != 3:
            raise DataError(f"the {name} split's pixels have shape {pixels.shape}: give (images, rows, cols)")
        if pixels.size == 0:
            n, rows, cols = pixels.shape
            raise DataError(f"the {name} split holds {n} images of {rows}x{cols} pixels: nothing to learn from")
        if pixels.dtype == np.float64:
            lo, hi = float(pixels.min()), float(pixels.max())
            if not 0.0 <= lo <= hi <= 1.0:
                raise DataError(f"the {name} split's float64 pixels span [{lo:g}, {hi:g}]: "
                                "float pixels must be scaled to [0, 1] already; uint8 ones are scaled on use")
        elif pixels.dtype != np.uint8:
            raise DataError(f"the {name} split's pixels are {pixels.dtype}: "
                            "give uint8 pixels, or float64 ones already scaled to [0, 1]")
        if labels.shape != (len(pixels),):
            raise DataError(f"the {name} split has {len(pixels)} images but labels of shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise DataError(f"the {name} split's labels are {labels.dtype}: give integer class indices")
        if labels.min() < 0 or labels.max() >= NUM_CLASSES:
            bad = int(np.argmax((labels < 0) | (labels >= NUM_CLASSES)))
            raise DataError(f"the {name} split's label {int(labels[bad])} at index {bad} "
                            f"is not a class index below {NUM_CLASSES}")
    if dataset.train.sequences.shape[1:] != dataset.test.sequences.shape[1:]:
        shapes = ["x".join(map(str, s.sequences.shape[1:])) for s in (dataset.train, dataset.test)]
        raise DataError(f"train images are {shapes[0]} pixels but test images {shapes[1]}")
