"""Freeze the exact bits of batch losses and gradients as a regression reference.

For every variant x activation configuration (21 in all) and batches of
1, 3 and 8 sequences at the paper's input shape (T = n_in = 28; n_h=6,
n_out=10), this writes the SHA-256 of what ``bptt.batch_loss_and_grads``
returns (mean loss, correct count and gradient vector, as float64 bytes)
to ``batch_digests.json`` next to this script, under the key
``<variant>/<activation>/<B>``.

The digests pin the engine's rounding, not only its values. At B = 1 the
weight-gradient products read F-ordered views of the deltas and hidden
states; a C-ordered copy of them sends BLAS to another kernel and moves
the last bits of all 21 configurations at B = 1. The committed file was
written by the engine before it took a workspace (commit cf7993a). Run
against a checkout's own code, from the repository root, with

    PYTHONPATH=src python -m tests.fixtures.freeze_batch_digests [out.json]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from slimrnn.bptt import batch_loss_and_grads
from slimrnn.cells import Activation, Params, Variant, VariantSpec, init_params
from slimrnn.data import SequenceBatch

T = N_IN = 28
N_H, N_OUT = 6, 10
BATCH_SIZES = (1, 3, 8)
DATA_SEED = 20170715
OUT = Path(__file__).with_name("batch_digests.json")


def digest_batch(size: int) -> SequenceBatch:
    """The same inputs and labels for every configuration of one batch size."""
    rng = np.random.default_rng([DATA_SEED, size])
    return SequenceBatch(inputs=rng.uniform(0.0, 1.0, size=(size, T, N_IN)),
                         labels=rng.integers(0, N_OUT, size=size))


def digest_params(spec: VariantSpec) -> Params:
    return init_params(spec, N_IN, N_H, N_OUT, seed=5)[0]


def digest(loss: float, grads: Params, correct: int) -> str:
    return hashlib.sha256(np.array([loss, correct]).tobytes() + grads.vec.tobytes()).hexdigest()


def freeze() -> dict[str, str]:
    out = {}
    for variant in Variant:
        for activation in Activation:
            spec = VariantSpec.make(variant, activation)
            p = digest_params(spec)
            for size in BATCH_SIZES:
                out[f"{variant.value}/{activation.value}/{size}"] = digest(
                    *batch_loss_and_grads(spec, p, p, digest_batch(size)))
    return out


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    path.write_text(json.dumps(freeze(), indent=1) + "\n")
    print(f"wrote {path}")
