"""Freeze batch losses and gradients as a regression reference.

For every variant x activation configuration (21 in all) and fixed
batches of 1, 3 and 5 sequences (n_in=3, n_h=5, n_out=4, T=4), this
writes what ``bptt.batch_loss_and_grads`` returns to ``batch_grads.npz``
next to this script: under the key ``<variant>/<activation>/<B>``, one
vector holding the mean loss, the correct count, and then every mean
gradient array flattened, in the order the gradients are returned.

The committed file was written by the per-example engine that preceded
the batch-major one (commit 7428618), so ``tests/test_bptt.py`` checks the
current engine against independently computed values. Run against a
checkout's own code with

    PYTHONPATH=src python tests/fixtures/freeze_batch_grads.py [out.npz]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from slimrnn.cells import Activation, Variant, VariantSpec, init_params
from slimrnn.data import SequenceBatch
from slimrnn.bptt import batch_loss_and_grads

N_IN, N_H, N_OUT, T = 3, 5, 4, 4
BATCH_SIZES = (1, 3, 5)
DATA_SEED = 20170714
OUT = Path(__file__).with_name("batch_grads.npz")


def fixed_batch(size: int) -> SequenceBatch:
    """The same inputs and labels for every configuration of one batch size."""
    rng = np.random.default_rng([DATA_SEED, size])
    inputs = rng.uniform(0.0, 1.0, size=(size, T, N_IN))
    labels = rng.integers(0, N_OUT, size=size)
    return SequenceBatch(inputs=inputs, labels=labels)


def freeze() -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for variant in Variant:
        for activation in Activation:
            spec = VariantSpec.make(variant, activation)
            for size in BATCH_SIZES:
                cell, head = init_params(spec, N_IN, N_H, N_OUT, seed=size)
                loss, grads, correct = batch_loss_and_grads(spec, cell, head, fixed_batch(size))
                key = f"{variant.value}/{activation.value}/{size}"
                out[key] = np.concatenate([[loss, correct], *(g.ravel() for g in grads.values())])
    return out


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    np.savez_compressed(path, **freeze())
    print(f"wrote {path}")
