"""Central finite-difference verification of the hand-derived gradients.

For every trainable coordinate the loss is evaluated at +/- EPS, the one
step (a module constant), and the central difference is compared against
the analytic gradient. The comparison is relative:

    err = |analytic - numeric| / max(|analytic|, |numeric|, 1e-4)

The 1e-4 floor keeps coordinates whose gradient vanishes from dividing
finite-difference roundoff (~1e-10 at EPS=1e-5) by zero; real errors are
proportional to the gradient itself and still surface.

The 2P + 1 loss evaluations (P parameters) run as replica passes:
R = max(1, REPLICA_UNITS // n_h) parameter vectors become one cell of
R*n_h units that goes through the ordinary ``forward_sequence``, replica r
owning units r*n_h .. (r+1)*n_h of every gate block. Input maps, biases
and point-wise gate vectors are stacked along the unit axis; the arrays
that read the hidden state (recurrent U_* and the head's W_hy) are
block-diagonal, so the logits hold R heads side by side. Every gate is
per-unit or constant and the off-diagonal blocks are exact zeros, so no
replica reads another's units: each computes its own cell, differing from
a standalone forward pass only in the summation order of the matrix
products. REPLICA_UNITS bounds the memory of a pass. The replica cell's
layout and the map from each copy's coordinates to its vector are built
once per (layout, R) and cached; each check fills a fresh zero vector
through that map, and each pass writes its vectors' +/- EPS entries into
it in place and undoes them afterwards.

relu has a kink at zero, where no finite difference is trustworthy. A
coordinate is only compared when every relu input (candidate
pre-activations and cell states fed to the output activation, at every
step of every example) lies on the same side of the kink in the
unperturbed evaluation and in both perturbed ones: the +/- EPS evaluations
then lie on one smooth piece of the loss, so the central difference is
as accurate there as for tanh or sigmoid. Inputs that are exactly zero
count as off: a relu cell pins many values at 0.0 by construction
(clamped candidates feeding a zero cell state), and relu and the
hand-derived derivative (taken as 0 there) agree with a value pushed
below zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bptt import Trace, Workspace, batch_loss_and_grads, forward_sequence, softmax_xent
from .cells import Activation, Layout, Params, Variant, VariantSpec, init_params, layout
from .data import SequenceBatch
from .rng import TAG_GRADCHECK, stream

EPS = 1e-5
REL_TOL = 1e-4
_ERR_FLOOR = 1e-4
REPLICA_UNITS = 160  # units per replica pass; 80-200 ran equally fast at n_h=5, 320 slower


def relu_pattern(trace: Trace) -> np.ndarray | None:
    """Which relu inputs of a forward pass are positive; None when the cell has no relu."""
    if trace.activation is not Activation.RELU:
        return None
    on = trace.pre[:, -trace.h.shape[1]:] > 0.0
    if trace.c is None:
        return on
    return np.concatenate([on, trace.c[1:] > 0.0])


def _replicate(name: str, blocks: np.ndarray) -> np.ndarray:
    """R copies (R, *shape) of one parameter array, laid out for a cell of R*n_h units."""
    if not (name.startswith("U_") or name == "W_hy"):
        return blocks.reshape(-1, *blocks.shape[2:])  # rows are units or classes: stack them
    R, rows, cols = blocks.shape  # columns read the hidden state: block-diagonal
    out = np.zeros((R, rows, R, cols), dtype=blocks.dtype)
    diag = np.arange(R)
    out[diag, :, diag, :] = blocks
    return out.reshape(R * rows, R * cols)


@lru_cache(maxsize=64)
def _replica_map(variant: Variant, n_in: int, n_h: int, n_out: int, R: int) -> tuple[Layout, np.ndarray]:
    """The layout of R copies of a cell as one replica cell, and ``where``.

    ``where[r, j]`` (read-only) is the position of copy r's coordinate j in
    the replica cell's vector. Entry j of copy r is labelled r*P + j + 1 and
    the labels are laid out like the replica cell's arrays (0 marks an
    off-diagonal zero), so each label's position is its entry's.
    """
    lay = layout(variant, n_in, n_h, n_out)
    replica = Params(layout(variant, n_in, R * n_h, R * n_out))
    ids = np.arange(1, R * lay.size + 1).reshape(R, lay.size)
    for name, (sl, shape) in lay.fields.items():
        replica[name] = _replicate(name, ids[:, sl].reshape(R, *shape))
    filled = np.flatnonzero(replica.vec)
    where = np.empty((R, lay.size), dtype=np.intp)
    where.flat[replica.vec[filled].astype(np.intp) - 1] = filled
    where.flags.writeable = False
    return replica.layout, where


def sweep_losses(
    spec: VariantSpec, params: Params, seqs: np.ndarray, labels: np.ndarray, ws: Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Mean loss over the time-major batch ``seqs`` (T, B, n_in) at every vector of the sweep.

    Vector 0 is the unperturbed one; vectors 2j+1 and 2j+2 add +EPS and
    -EPS to coordinate j of the parameter vector ``params.vec``. Also
    returns, per vector, whether its relu pattern equals vector 0's. Every
    pass carves its trace from ``ws`` and is read before the next starts it over.
    """
    lay, base = params.layout, params.vec
    P = base.size
    R = min(max(1, REPLICA_UNITS // lay.n_h), 2 * P + 1)
    rep_layout, where = _replica_map(lay.variant, lay.n_in, lay.n_h, lay.n_out, R)
    replica = Params(rep_layout)
    work = replica.vec
    work[where] = base

    n = 2 * P + 1
    coord = np.arange(-1, n - 1) // 2  # vector k > 0 moves coordinate (k-1)//2
    value = base[coord] + np.where(np.arange(n) % 2, EPS, -EPS)
    B = len(labels)
    labels = np.repeat(labels, R)  # logits row b*R + r is example b under replica r
    losses = np.empty(n)
    same = np.ones(n, dtype=bool)
    for lo in range(0, n, R):
        k = np.arange(lo, min(lo + R, n))
        moved = k[k > 0]
        slots = where[moved - lo, coord[moved]]
        work[slots] = value[moved]
        logits, trace = forward_sequence(spec, replica, replica, seqs, ws)
        work[slots] = base[coord[moved]]
        xent, _ = softmax_xent(logits.reshape(B * R, -1), labels)
        losses[k] = xent.reshape(B, R)[:, : len(k)].sum(axis=0) / B
        pattern = relu_pattern(trace)
        if pattern is not None:
            pattern = pattern.reshape(len(pattern), R, -1, B)[:, : len(k)]
            base_pattern = pattern[:, :1] if lo == 0 else base_pattern
            same[k] = (pattern == base_pattern).all(axis=(0, 2, 3))
    return losses, same


@dataclass
class CheckResult:
    variant: Variant
    activation: Activation
    seed: int
    max_rel_err: float
    compared: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.compared > 0 and self.max_rel_err < REL_TOL


def check_gradients(
    variant: Variant | str,
    activation: Activation | str,
    n_in: int = 3,
    n_h: int = 5,
    n_out: int = 4,
    T: int = 4,
    seed: int = 0,
    batch_size: int = 1,
    *,
    ws: Workspace,
) -> CheckResult:
    """Compare batch BPTT gradients against central differences for one config.

    The loss is the mean over ``batch_size`` random sequences, and the
    relu kink rule covers all of them. Every pass carves from ``ws``.
    """
    spec = VariantSpec.make(variant, activation)
    cell, head = init_params(spec, n_in, n_h, n_out, seed)
    rng = stream(seed, TAG_GRADCHECK)
    batch = SequenceBatch(
        inputs=rng.uniform(0.0, 1.0, size=(batch_size, T, n_in)),
        labels=rng.integers(0, n_out, size=batch_size),
    )

    _, grads, _ = batch_loss_and_grads(spec, cell, head, batch, ws)
    analytic = grads.vec
    losses, same = sweep_losses(spec, cell, np.swapaxes(batch.inputs, 0, 1), batch.labels, ws)
    numeric = (losses[1::2] - losses[2::2]) / (2.0 * EPS)
    compared = same[1::2] & same[2::2]
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _ERR_FLOOR)
    err = np.abs(analytic - numeric)[compared] / scale[compared]
    n_compared = int(np.count_nonzero(compared))

    return CheckResult(
        variant=spec.variant, activation=spec.activation, seed=seed,
        max_rel_err=float(err.max(initial=0.0)), compared=n_compared,
        skipped=analytic.size - n_compared,
    )


def check_all(
    seeds: tuple[int, ...] = (0, 1, 2),
    variants: tuple[Variant, ...] = tuple(Variant),
    activations: tuple[Activation, ...] = tuple(Activation),
    **dims,
) -> list[CheckResult]:
    """The full verification matrix: variants x activations x seeds, sharing one Workspace."""
    ws = Workspace()
    return [
        check_gradients(v, a, seed=s, ws=ws, **dims)
        for v in variants
        for a in activations
        for s in seeds
    ]
