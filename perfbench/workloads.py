"""The three workloads and the one timed call ("op") each of them repeats.

Paper shapes throughout training: T=28 rows of n_in=28 pixels, n_h=100,
batch 32, eta=1e-3, 10 classes. Train and test limits keep the 6:1 ratio
of README's desk-scale check.

* epoch-lstm: one op is ``harness.train`` for one epoch of dense ``lstm``
  (walk plus both evaluation passes). FLOP-bound.
* grid-slim: one op is a one-cell ``harness.run_grid`` over one of the
  slim variants x {tanh, sigmoid, relu}, with short cells. Dominated by
  per-step Python, linalg checks and per-cell set-up.
* gradcheck: one op is ``gradcheck.check_all`` over one cell's nine
  configurations (3 activations x seeds 0, 1, 2) at tiny shapes, so a
  round covers the 63-configuration matrix. Forward passes as per-call
  fixed cost only.

The program is driven only through ``data.load_dataset``, ``harness.train``,
``harness.run_grid``, ``gradcheck.check_all`` and the ``count-params``
command. ``first_batch_gradient`` is the one place that reaches into the
engine (to get a gradient to verify); it runs outside the timed region.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import flops

T = N_IN = 28
N_H = 100
N_OUT = 10
PAPER_DIMS = {"T": T, "n_in": N_IN, "n_h": N_H, "n_out": N_OUT}
BATCH = 32
ETA = 1e-3
GRADCHECK_SEEDS = (0, 1, 2)  # the README's 63-configuration matrix; see seed_triple
GRADCHECK_DIMS = {"n_in": 3, "n_h": 5, "n_out": 4, "T": 4}
SLIM = ("lstm4", "lstm5", "lstm4a", "lstm5a", "lstm6")
ACTIVATIONS = ("tanh", "sigmoid", "relu")
CELLS = ("lstm",) + SLIM + ("srn",)
GRADCHECK_CONFIGS = len(ACTIVATIONS) * len(GRADCHECK_SEEDS)  # per check_all call (one cell)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                            # "epoch", "cell" or "gradcheck"
    configs: tuple[tuple[str, str], ...]  # (variant, activation) of each op in one round
    train_limit: int
    test_limit: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("epoch-lstm", "epoch", (("lstm", "tanh"),), 192, 32),
        Workload("grid-slim", "cell", tuple((v, a) for v in SLIM for a in ACTIVATIONS), 96, 16),
        Workload("gradcheck", "gradcheck", tuple((v, "all") for v in CELLS), 192, 32),
    )
}


@dataclass
class OpResult:
    config: tuple[str, str]
    seconds: float
    ops: int                 # ops in the README sense: epochs, cells or configurations
    walk_s: float = 0.0      # optimizer walk as the program reports it
    n_train: int = 0
    n_eval: int = 0
    flop: float = 0.0        # computed, not measured
    compared: int = 0        # gradcheck coordinates compared / skipped
    skipped: int = 0
    problems: list[str] = field(default_factory=list)
    span: tuple[int, int] = (0, 0)
    ref_s: float = 0.0       # reference-kernel seconds around this op (bench.Reference)


def seed_triple(seed: int) -> tuple[int, int, int]:
    """Seeds of the untimed extra check_all pass; distinct from GRADCHECK_SEEDS for every seed."""
    first = 3 * (seed + 1)
    return first, first + 1, first + 2


def train_config(slim, workload: Workload, variant: str, activation: str, seed: int, data_dir: Path):
    return slim.harness.TrainConfig(
        variant=variant, activation=activation, eta=ETA, epochs=1, batch_size=BATCH,
        n_h=N_H, seed=seed, train_limit=workload.train_limit,
        test_limit=workload.test_limit, data_dir=data_dir,
    )


def epoch_flop(variant: str, n_train: int, n_eval: int) -> float:
    fwd = flops.forward_madds(variant, **PAPER_DIMS)
    bwd = flops.backward_madds(variant, **PAPER_DIMS)
    return 2.0 * (n_train * (fwd + bwd) + n_eval * fwd)


def gradcheck_flop(variant: str, coordinates: int) -> float:
    """One analytic forward+backward pass plus two forward passes per coordinate."""
    fwd = flops.forward_madds(variant, **GRADCHECK_DIMS)
    bwd = flops.backward_madds(variant, **GRADCHECK_DIMS)
    return 2.0 * (fwd + bwd + 2 * coordinates * fwd)


def flop_per_ex(workload: Workload) -> float:
    """Computed flops of one forward+backward pass of one example, averaged over the configs."""
    dims = GRADCHECK_DIMS if workload.kind == "gradcheck" else PAPER_DIMS
    per = [2.0 * (flops.forward_madds(v, **dims) + flops.backward_madds(v, **dims)) for v, _ in workload.configs]
    return float(np.mean(per))


def run_op(slim, workload: Workload, config: tuple[str, str], seed: int, data_dir: Path,
           dataset, work_dir: Path) -> OpResult:
    """Time one program call, then check its outputs (untimed)."""
    variant, activation = config
    if workload.kind == "epoch":
        cfg = train_config(slim, workload, variant, activation, seed, data_dir)
        t0 = time.perf_counter()
        rows = slim.harness.train(cfg, dataset=dataset)
        seconds = time.perf_counter() - t0
        losses = [r.mean_train_loss for r in rows]
        walk = sum(r.epoch_seconds for r in rows)
        problems = checks.loss_problems(f"{variant}/{activation}", activation, losses)
        if len(rows) != 1:
            problems.append(f"{variant}/{activation}: {len(rows)} metrics rows for one epoch")
    elif workload.kind == "cell":
        cfg = train_config(slim, workload, variant, activation, seed, data_dir)
        out_dir = work_dir / "grid" / f"{variant}-{activation}"
        t0 = time.perf_counter()
        summary = slim.harness.run_grid([variant], [activation], [ETA], cfg, out_dir, dataset=dataset)
        seconds = time.perf_counter() - t0
        walk, problems = _cell_outputs(Path(summary), variant, activation)
    else:
        t0 = time.perf_counter()
        results = slim.gradcheck.check_all(seeds=GRADCHECK_SEEDS, variants=(variant,), **GRADCHECK_DIMS)
        seconds = time.perf_counter() - t0
        res = OpResult(config, seconds, ops=len(results),
                       compared=sum(r.compared for r in results),
                       skipped=sum(r.skipped for r in results),
                       problems=checks.gradcheck_problems(results))
        res.flop = sum(gradcheck_flop(r.variant.value, r.compared + r.skipped) for r in results)
        if len(results) != GRADCHECK_CONFIGS:
            res.problems.append(f"check_all returned {len(results)} configurations")
        return res
    n_train = len(dataset.train)
    n_eval = n_train + len(dataset.test)
    return OpResult(config, seconds, ops=1, walk_s=walk, n_train=n_train, n_eval=n_eval,
                    flop=epoch_flop(variant, n_train, n_eval), problems=problems)


def _cell_outputs(summary: Path, variant: str, activation: str) -> tuple[float, list[str]]:
    """Walk seconds and problems from one cell's summary.csv and metrics CSV."""
    label = f"{variant}/{activation}"
    with open(summary, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != 1 or rows[0]["variant"] != variant or rows[0]["activation"] != activation:
        return 0.0, [f"{label}: unexpected summary rows {rows}"]
    problems = checks.param_problems(variant, int(rows[0]["params"]))
    if math.isnan(float(rows[0]["best_train"])):
        problems.append(f"{label}: the grid recorded the cell as failed")
    metrics = [p for p in summary.parent.glob("*.csv") if p.name != summary.name]
    if len(metrics) != 1:
        return 0.0, problems + [f"{label}: expected one metrics CSV, found {len(metrics)}"]
    with open(metrics[0], newline="") as f:
        epochs = list(csv.DictReader(f))
    if len(epochs) != 1:
        return 0.0, problems + [f"{label}: {len(epochs)} metrics rows for one epoch"]
    problems += checks.loss_problems(label, activation, [float(epochs[0]["train_loss"])])
    return float(epochs[0]["epoch_seconds"]), problems


def first_batch_gradient(slim, variant: str, activation: str, dataset, seed: int):
    """Verify the first training batch's gradient for one configuration.

    Initialization and the first batch follow ``harness.train``: the same
    seed, n_h and batch size, epoch 1.
    """
    spec = slim.cells.VariantSpec.make(variant, activation)
    n_in = dataset.train.sequences.shape[2]
    cell, head = slim.cells.init_params(spec, n_in, N_H, N_OUT, seed)
    batch = slim.data.batches(dataset.train, BATCH, seed, 1)[0]
    _, grads, _ = slim.bptt.batch_loss_and_grads(spec, cell, head, batch)
    params = {**cell.arrays(), **head.arrays()}
    relu = activation == "relu"

    def loss_at(arrays):
        c, h = cell.with_arrays(arrays), head.with_arrays(arrays)
        total, kinks = 0.0, []
        for x, label in zip(batch.inputs, batch.labels):
            logits, caches = slim.bptt.forward_sequence(spec, c, h, x)
            total += slim.bptt.softmax_xent(logits, int(label))[0]
            if relu:
                kinks += [k.a_c > 0 for k in caches] + [k.c > 0 for k in caches if k.c is not None]
        return total / len(batch), (np.concatenate(kinks) if relu else None)

    return checks.central_difference_check(loss_at, params, grads)
