"""Training loop, per-epoch evaluation, metrics files, and the experiment grid.

One epoch is: reshuffle, walk the batches applying one RMSprop step per
batch, then run a full evaluation pass over the train and test splits.
The recorded epoch time covers the optimization walk only, not the
evaluation passes. Metrics rows are appended to the CSV and flushed as
soon as each epoch finishes, so a killed run keeps everything it
completed. A non-finite loss is recorded like any other value and
training simply continues; divergence is data, not an error.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .bptt import Workspace, batch_loss_and_grads, forward_sequence
from .cells import Activation, Params, Variant, VariantSpec, init_params, layout
from .data import NUM_CLASSES, Dataset, Split, batches, check_dataset, load_dataset
from .optim import rmsprop_step

METRICS_HEADER = "epoch,train_acc,test_acc,train_loss,epoch_seconds"
SUMMARY_HEADER = "variant,activation,eta,best_train,best_test,params,best_test_epoch"

DEFAULT_ETAS = (1e-4, 1e-3, 2e-3)
# Examples per evaluation forward pass: the paper's batch size, so a chunk's
# trace fits in the workspace a training batch has grown (lstm at the paper's
# shapes: 11 MB inside the batch's 21 MB). Chunks of 128 would grow it to
# 44 MB for a ~5% faster evaluation (0.052 against 0.055 ms per example).
EVAL_CHUNK = 32


class ConfigError(ValueError):
    """Invalid training configuration."""


@dataclass
class TrainConfig:
    variant: Variant | str
    activation: Activation | str
    eta: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    n_h: int = 100
    seed: int = 0
    train_limit: int | None = None
    test_limit: int | None = None
    data_dir: str | Path = "data"
    metrics_path: str | Path | None = None

    def validate(self) -> "TrainConfig":
        try:
            variant = Variant(self.variant)
            activation = Activation(self.activation)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        if self.metrics_path is not None:
            path = Path(self.metrics_path)
            if path.is_dir():
                raise ConfigError(f"metrics path {path} is a directory")
            files = [d for d in path.parents if d.exists() and not d.is_dir()]
            if files:
                raise ConfigError(f"metrics path {path} lies under {files[0]}, which is not a directory")
        if self.epochs < 1 or self.batch_size < 1 or self.n_h < 1:
            raise ConfigError("epochs, batch_size and hidden size must be at least 1")
        for name in ("train_limit", "test_limit"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConfigError(f"{name} must be at least 1 when given")
        return replace(self, variant=variant, activation=activation)


@dataclass
class EpochMetrics:
    epoch: int
    train_accuracy: float
    test_accuracy: float
    mean_train_loss: float
    epoch_seconds: float

    def csv_row(self) -> str:
        return ",".join(
            [
                str(self.epoch),
                repr(float(self.train_accuracy)),
                repr(float(self.test_accuracy)),
                repr(float(self.mean_train_loss)),
                repr(float(self.epoch_seconds)),
            ]
        )


@dataclass
class BestResult:
    best_train: float
    best_test: float
    best_test_epoch: int


def evaluate(spec: VariantSpec, model: Params, split: Split, ws: Workspace | None = None) -> float:
    """Fraction of examples whose argmax logit hits the label (ties: lowest index).

    The split runs through the batched forward pass EVAL_CHUNK examples at
    a time, which bounds the memory its trace takes; each chunk's trace
    goes into ``ws`` when one is given.
    """
    if len(split) == 0:
        raise ValueError("cannot evaluate an empty split")
    correct = 0
    for start in range(0, len(split), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        logits, _ = forward_sequence(spec, model, model, np.swapaxes(split.sequences[chunk], 0, 1), ws)
        correct += int(np.count_nonzero(np.argmax(logits, axis=1) == split.labels[chunk]))
    return correct / len(split)


def best_of(metrics: Iterable[EpochMetrics]) -> BestResult:
    """Independent maxima of train and test accuracy over the epochs."""
    rows = list(metrics)
    if not rows:
        raise ValueError("no epochs recorded")
    best_train = max(r.train_accuracy for r in rows)
    best_test_row = max(rows, key=lambda r: (r.test_accuracy, -r.epoch))
    return BestResult(
        best_train=best_train,
        best_test=best_test_row.test_accuracy,
        best_test_epoch=best_test_row.epoch,
    )


def train(
    config: TrainConfig,
    dataset: Dataset | None = None,
    verbose: bool = False,
    ws: Workspace | None = None,
) -> list[EpochMetrics]:
    """Run the full protocol; returns one metrics row per epoch.

    ``dataset`` defaults to the MNIST files under ``config.data_dir`` and
    may be injected directly (tests, synthetic data); an unusable one
    raises DataError. Rows stream to ``config.metrics_path`` as they are
    produced. Every batch and evaluation chunk of the run reuses the
    memory of ``ws``, a fresh Workspace when none is given.
    """
    config = config.validate()
    if dataset is None:
        dataset = load_dataset(config.data_dir, config.train_limit, config.test_limit)
    else:
        check_dataset(dataset)

    spec = VariantSpec.make(config.variant, config.activation)
    n_in = dataset.train.sequences.shape[2]
    model, _ = init_params(spec, n_in, config.n_h, NUM_CLASSES, config.seed)  # cell and head in one Params
    acc = np.zeros_like(model.vec)
    ws = Workspace() if ws is None else ws

    metrics: list[EpochMetrics] = []
    out = None if config.metrics_path is None else _create_fresh(Path(config.metrics_path), METRICS_HEADER)
    try:
        for epoch in range(1, config.epochs + 1):
            n_seen = 0
            loss_sum = 0.0
            t0 = time.perf_counter()
            for batch in batches(dataset.train, config.batch_size, config.seed, epoch):
                loss, grads, _ = batch_loss_and_grads(spec, model, model, batch, ws)
                rmsprop_step(model.vec, grads.vec, acc, config.eta)
                loss_sum += loss * len(batch)
                n_seen += len(batch)
            seconds = time.perf_counter() - t0

            row = EpochMetrics(
                epoch=epoch,
                train_accuracy=evaluate(spec, model, dataset.train, ws),
                test_accuracy=evaluate(spec, model, dataset.test, ws),
                mean_train_loss=loss_sum / n_seen,
                epoch_seconds=seconds,
            )
            metrics.append(row)
            if out is not None:
                out.write(row.csv_row() + "\n")
                out.flush()
            if verbose:
                print(
                    f"epoch {row.epoch:3d}  train_acc={row.train_accuracy:.4f}  "
                    f"test_acc={row.test_accuracy:.4f}  loss={row.mean_train_loss:.4f}  "
                    f"{row.epoch_seconds:.1f}s",
                    flush=True,
                )
    finally:
        if out is not None:
            out.close()
    return metrics


def _create_fresh(path: Path, header: str) -> IO[str]:
    """Open ``path`` as a new file holding ``header``, replacing any file there.

    The old file is unlinked, not truncated: on ext4 (``auto_da_alloc``)
    truncating a non-empty file starts writeback at close, and the next
    truncating open waits for the disk, tens of milliseconds per file.
    A symlink's target is replaced and the link stays. Nothing is fsynced.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    path = path.resolve()
    path.unlink(missing_ok=True)
    f = open(path, "x")
    f.write(header + "\n")
    f.flush()
    return f


def _cell_name(config: TrainConfig) -> str:
    return f"{config.variant.value}_{config.activation.value}_eta{config.eta:g}.csv"


def run_grid(
    variants: Iterable[Variant | str],
    activations: Iterable[Activation | str],
    etas: Iterable[float],
    base: TrainConfig,
    out_dir: str | Path,
    dataset: Dataset | None = None,
    verbose: bool = False,
) -> Path:
    """Train every (variant, activation, eta) cell; returns the summary path.

    Every cell's configuration is validated before the first cell runs, so
    a bad one (an unknown variant or activation, or an ``out_dir`` that is,
    or lies under, a regular file among them), or two cells whose metrics
    files would share a name, raises ConfigError without training
    anything; an unusable dataset raises DataError before ``out_dir`` is
    created. Each cell writes its own metrics CSV into ``out_dir``, and
    all cells share one Workspace. A cell that fails while running is
    recorded with NaN accuracies and the grid keeps going.
    """
    out_dir = Path(out_dir)
    cells = [
        replace(base, variant=v, activation=a, eta=eta, metrics_path=None).validate()
        for v, a, eta in itertools.product(variants, activations, etas)
    ]
    if not cells:
        raise ConfigError("grid axes must be nonempty")
    cells = [replace(config, metrics_path=out_dir / _cell_name(config)).validate() for config in cells]
    paths = [config.metrics_path for config in cells]
    shared = [p.name for i, p in enumerate(paths) if p in paths[:i]]
    if shared:
        raise ConfigError(f"grid cells would share a metrics file, e.g. {shared[0]}")
    if dataset is None:
        dataset = load_dataset(base.data_dir, base.train_limit, base.test_limit)
    else:
        check_dataset(dataset)
    n_in = dataset.train.sequences.shape[2]
    ws = Workspace()

    summary_path = out_dir / "summary.csv"
    with _create_fresh(summary_path, SUMMARY_HEADER) as summary:
        for config in cells:
            variant, activation, eta = config.variant, config.activation, config.eta
            n_params = layout(variant, n_in, config.n_h, NUM_CLASSES).size
            if verbose:
                print(f"=== {variant.value} {activation.value} eta={eta:g}", flush=True)
            try:
                best = best_of(train(config, dataset=dataset, verbose=verbose, ws=ws))
            except Exception as e:  # any cell failure: record, move on
                print(f"grid cell {variant.value}/{activation.value}/eta={eta:g} failed: {e}", file=sys.stderr)
                best = BestResult(math.nan, math.nan, 0)
            row = [variant.value, activation.value, f"{eta:g}", repr(float(best.best_train)),
                   repr(float(best.best_test)), str(n_params), str(best.best_test_epoch)]
            summary.write(",".join(row) + "\n")
            summary.flush()
    return summary_path
