"""Freeze the exact bits of batch losses and gradients at the paper's shapes.

``batch_digests.json`` pins rounding at n_h = 6 and up to 8 sequences; this
file pins it where the benchmark and the paper run: every variant x
activation configuration (21 in all) at T = n_in = 28, n_h = 100 and a batch
of 32, under the key ``<variant>/<activation>/28x100x32``. For each variant
at relu it also pins three edge shapes (T x n_h x B) at which one of T, the
rows of a delta block or B is 1: 4x1x2, 1x5x3 and 4x5x1. There the engine's
stacked deltas and hidden states are views of another layout, and the BLAS
kernel that reads them, with its rounding, changes with their strides.

Each value is the SHA-256 of what ``bptt.batch_loss_and_grads`` returns
(mean loss, correct count and gradient vector, as float64 bytes), like
``freeze_batch_digests``. At these shapes OpenBLAS splits a GEMM between
threads when it has more than one, and the split moves its rounding, so
``freeze`` pins BLAS to one thread as the CLI does; the digests then pin
the BLAS kernels of the machine that wrote them. Run against a checkout's
own code, from the repository root, with

    PYTHONPATH=src python -m tests.fixtures.freeze_paper_digests [out.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from slimrnn.bptt import batch_loss_and_grads
from slimrnn.cells import Activation, Variant, VariantSpec, init_params
from slimrnn.cli import _pin_blas
from slimrnn.data import SequenceBatch

from .freeze_batch_digests import digest

N_IN, N_OUT = 28, 10
PAPER = (28, 100, 32)  # T, n_h, B
EDGES = ((4, 1, 2), (1, 5, 3), (4, 5, 1))
DATA_SEED = 20170714
OUT = Path(__file__).with_name("paper_digests.json")


def configurations() -> list[tuple[VariantSpec, tuple[int, int, int]]]:
    """Every (spec, (T, n_h, B)) the file pins, in its key order."""
    out = [(VariantSpec.make(v, a), PAPER) for v in Variant for a in Activation]
    return out + [(VariantSpec.make(v, "relu"), shape) for v in Variant for shape in EDGES]


def key(spec: VariantSpec, shape: tuple[int, int, int]) -> str:
    return f"{spec.variant.value}/{spec.activation.value}/" + "x".join(map(str, shape))


def run(spec: VariantSpec, shape: tuple[int, int, int]) -> str:
    """The digest of one configuration, on inputs shared by every spec of its shape."""
    T, n_h, B = shape
    rng = np.random.default_rng([DATA_SEED, *shape])
    batch = SequenceBatch(inputs=rng.uniform(0.0, 1.0, size=(B, T, N_IN)), labels=rng.integers(0, N_OUT, size=B))
    p = init_params(spec, N_IN, n_h, N_OUT, seed=7)[0]
    return digest(*batch_loss_and_grads(spec, p, p, batch))


def freeze() -> dict[str, str]:
    _pin_blas()
    return {key(spec, shape): run(spec, shape) for spec, shape in configurations()}


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    path.write_text(json.dumps(freeze(), indent=1) + "\n")
    print(f"wrote {path}")
