"""Build, write and load the bit fixtures the tests compare with.

The four bit fixtures pin what an earlier commit's code did, bit for bit, for
all 21 variant x activation configurations, under keys ``<variant>/<activation>/...``.

``batch_digests.json``
    For batches of 1, 3 and 8 sequences at the paper's input shape
    (T = n_in = 28; n_h = 6, n_out = 10), the SHA-256 of what
    ``bptt.batch_loss_and_grads`` returns (mean loss, correct count and
    gradient vector, as float64 bytes), under ``.../<B>``. The digests pin
    the engine's rounding, not only its values. The committed file was
    re-frozen, with the three below, when the dense rows of the parameters
    became one [U | W | b] stack and every batch size took the engine's one
    product form; until then it held the bits of the engine before it took
    a workspace (commit cf7993a), which the B = 1 form and the F-ordered
    views of the old weight-gradient products kept. Across that re-freeze
    no loss moved by more than 2.1e-15 and no gradient array by more than
    1.4e-12, relative to its largest entry.

``paper_digests.json``
    The same digests where the benchmark and the paper run: T = n_in = 28,
    n_h = 100 and a batch of 32, under ``.../28x100x32``. For each variant
    at relu it also pins three edge shapes (T x n_h x B) at which one of T,
    n_h or B is 1: 4x1x2, 1x5x3 and 4x5x1; at B = 1 every product of a step
    is a matrix-vector one, which BLAS runs with another kernel and another
    rounding. At these shapes OpenBLAS splits a GEMM between threads
    when it has more than one, and the split moves its rounding, so the
    digests hold at one BLAS thread, as the CLI runs; they then pin the BLAS
    kernels of the machine that wrote them.

``gradcheck_counts.json``
    For the 63-configuration matrix (seeds 0-2; n_in = 3, n_h = 5,
    n_out = 4, T = 4) at batch sizes 1 and 3, the pair ``[compared,
    skipped]`` of each ``CheckResult`` of ``gradcheck.check_all``, under
    ``.../<seed>/<B>``. At eps = 1e-5 no relu input of that matrix comes
    near the kink, so every count has skipped == 0; the relu rows are
    written once more with ``gradcheck.EPS`` set to the coarse step 0.03
    (keys ending in ``/eps=0.03``), where the perturbations flip relu inputs
    and the kink rule skips coordinates. Those coarse checks do not pass
    (the step is far too large for the tolerance); only their counts are a
    reference. The committed file was written by the check with one forward
    pass per coordinate that preceded the replica passes (commit c7a187b):
    batching the central differences changed neither the kink rule's
    verdicts nor the coordinates covered, and re-freezing it with the
    digests above left it byte for byte as it was. Neither did running
    the perturbed vectors as columns of one batched pass in place of the
    replica passes.

``train_metrics.json``
    Two epochs on the synthetic stripe data of ``tests/conftest.py`` (41
    training examples, so the last batch of 8 holds a single example, and 16
    test examples; n_h = 6, eta = 2e-3, seed 5): the metrics CSV that
    ``harness.train`` streams, without its ``epoch_seconds`` column. Every
    number in those rows depends on the initial draw order, on every
    gradient and on the RMSprop update's floating-point order, so the file
    pins the whole trajectory bit for bit. The committed file was re-frozen
    with the digests above; before that it held the rows of the code before
    the parameters moved into one flat vector (commit fa05651). The
    re-freeze moved the last digits of train_loss in 8 rows of 5
    configurations (lstm4a/tanh, lstm4a/relu, lstm5a/tanh, lstm6/tanh,
    lstm6/relu), by at most 7.1e-11 relative, and no accuracy.

``batch_grads.npz`` has no writer, on purpose. For batches of 1, 3 and 5
sequences at the small shape above it holds, under ``.../<B>``, one vector
of the mean loss, the correct count and every mean gradient array flattened
in the order the gradients are returned. It was written by the per-example
engine that preceded the batch-major one (commit 7428618), so the tests
check the current engine, within a tolerance, against independently
computed values; re-freezing it would compare the engine with itself.

Run from the repository root, against a checkout's own code,

    PYTHONPATH=src python -m tests.fixtures.freeze [NAME ...] [--out DIR]

writes the named fixtures (all four when none is named) into DIR, by
default this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from slimrnn import gradcheck
from slimrnn.bptt import batch_loss_and_grads
from slimrnn.cells import Activation, Params, Variant, VariantSpec, init_params
from slimrnn.cli import _pin_blas
from slimrnn.data import SequenceBatch
from slimrnn.harness import TrainConfig, train

from ..conftest import seeded_batch, synth_dataset

HERE = Path(__file__).parent

# batch_grads.npz and gradcheck_counts.json: the small shape
N_IN, N_H, N_OUT, T = 3, 5, 4, 4
DIMS = dict(n_in=N_IN, n_h=N_H, n_out=N_OUT, T=T)
GRAD_SIZES = (1, 3, 5)
CHECK_SIZES = (1, 3)
SEEDS = (0, 1, 2)
COARSE_EPS = 0.03

# batch_digests.json and paper_digests.json: the paper's input shape
DIGEST_SIZES = (1, 3, 8)
PAPER = (28, 100, 32)  # T, n_h, B
EDGES = ((4, 1, 2), (1, 5, 3), (4, 5, 1))

SPECS = [VariantSpec.make(v, a) for v in Variant for a in Activation]


def key(config: VariantSpec | gradcheck.CheckResult) -> str:
    return f"{config.variant.value}/{config.activation.value}"


def fixed_batch(size: int) -> SequenceBatch:
    """batch_grads.npz's inputs and labels, the same for every configuration of one batch size."""
    return seeded_batch([20170714, size], size, T, N_IN, N_OUT)


def digest_batch(size: int) -> SequenceBatch:
    """batch_digests.json's inputs and labels, the same for every configuration of one batch size."""
    return seeded_batch([20170715, size], size, 28, 28, 10)


def digest_params(spec: VariantSpec) -> Params:
    return init_params(spec, 28, 6, 10, seed=5)[0]


def digest(loss: float, grads: Params, correct: int) -> str:
    return hashlib.sha256(np.array([loss, correct]).tobytes() + grads.vec.tobytes()).hexdigest()


def batch_digests() -> dict[str, str]:
    out = {}
    for spec in SPECS:
        p = digest_params(spec)
        for size in DIGEST_SIZES:
            out[f"{key(spec)}/{size}"] = digest(*batch_loss_and_grads(spec, p, p, digest_batch(size)))
    return out


def paper_digests() -> dict[str, str]:
    """Every configuration's digest, on inputs shared by every spec of its (T, n_h, B)."""
    configurations = [(spec, PAPER) for spec in SPECS]
    configurations += [(VariantSpec.make(v, "relu"), shape) for v in Variant for shape in EDGES]
    out = {}
    for spec, (t, n_h, b) in configurations:
        p = init_params(spec, 28, n_h, 10, seed=7)[0]
        batch = seeded_batch([20170714, t, n_h, b], b, t, 28, 10)
        out[f"{key(spec)}/{t}x{n_h}x{b}"] = digest(*batch_loss_and_grads(spec, p, p, batch))
    return out


def gradcheck_counts() -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for size in CHECK_SIZES:
        for r in gradcheck.check_all(seeds=SEEDS, batch_size=size, **DIMS):
            if not r.passed:
                raise SystemExit(f"{r} does not pass; refusing to freeze its counts")
            out[f"{key(r)}/{r.seed}/{size}"] = [r.compared, r.skipped]
        with mock.patch.object(gradcheck, "EPS", COARSE_EPS):
            for r in gradcheck.check_all(seeds=SEEDS, batch_size=size, **DIMS):
                if r.activation is Activation.RELU:
                    out[f"{key(r)}/{r.seed}/{size}/eps={COARSE_EPS:g}"] = [r.compared, r.skipped]
    return out


def metrics_text(variant: Variant, activation: Activation) -> str:
    """The metrics CSV of one short run, every line without its last (timing) column."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        config = TrainConfig(variant, activation, eta=2e-3, epochs=2, batch_size=8, n_h=6, seed=5, metrics_path=path)
        train(config, dataset=synth_dataset(41, 16, seed=3))
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines())


def train_metrics() -> dict[str, str]:
    return {key(spec): metrics_text(spec.variant, spec.activation) for spec in SPECS}


def indented(frozen: dict) -> str:
    return json.dumps(frozen, indent=1) + "\n"


def sorted_rows(frozen: dict) -> str:
    """One key per line, sorted, so that a change to a count is a one-line diff."""
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(frozen[k])}" for k in sorted(frozen)) + "\n}\n"


# file name -> (builder, text format)
WRITERS = {
    "batch_digests.json": (batch_digests, indented),
    "paper_digests.json": (paper_digests, indented),
    "gradcheck_counts.json": (gradcheck_counts, sorted_rows),
    "train_metrics.json": (train_metrics, indented),
}


def load(name: str) -> dict:
    """The committed fixture ``name``, as its builder returned it (``batch_grads.npz`` as arrays)."""
    if name.endswith(".npz"):
        with np.load(HERE / name) as frozen:
            return dict(frozen)
    return json.loads((HERE / name).read_text())


def main() -> None:
    parser = argparse.ArgumentParser(prog="python -m tests.fixtures.freeze", description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help=f"one of {', '.join(WRITERS)} (default: all)")
    parser.add_argument("--out", type=Path, default=HERE, metavar="DIR", help="directory to write into (default: tests/fixtures)")
    args = parser.parse_args()
    for name in args.names:
        if name not in WRITERS:
            parser.error(f"{name} has no writer; the writers are {', '.join(WRITERS)}")
    _pin_blas()
    for name in args.names or WRITERS:
        build, text = WRITERS[name]
        (args.out / name).write_text(text(build()))
        print(f"wrote {args.out / name}")


if __name__ == "__main__":
    main()
