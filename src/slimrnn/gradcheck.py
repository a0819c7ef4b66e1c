"""Central finite-difference verification of the hand-derived gradients.

For every trainable coordinate the loss is evaluated at +/- EPS, the one
step (a module constant), and the central difference is compared against
the analytic gradient. The comparison is relative:

    err = |analytic - numeric| / max(|analytic|, |numeric|, 1e-4)

The 1e-4 floor keeps coordinates whose gradient vanishes from dividing
finite-difference roundoff (~1e-10 at EPS=1e-5) by zero; real errors are
proportional to the gradient itself and still surface.

Of the 2P + 1 loss evaluations (P parameters), only the unperturbed one
and the 2 per cell coordinate run forward passes. The head's coordinates
(W_hy and b_y, last in the vector) take none: the head is affine in its
parameters and feeds nothing back into the cell, so moving W_hy[i, j] or
b_y[i] by a step moves only logit i of the unperturbed evaluation, by
the step times h_T[j] or by the step. The logits of all 2P + 1
evaluations then go through one ``softmax_xent`` call.

The forward passes run as replica passes:
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
layout, the map from each copy's coordinates to its vector and every
index array of the sweep (each pass's slots, the head's logits) are built
once per (layout, REPLICA_UNITS) and cached. The replica vector, a zero
vector filled with the model's values through that map, serves a whole
sweep: each pass writes its vectors' +/- EPS entries into it in place and
undoes them afterwards, so it leaves the sweep as it came.

``check_all`` alone builds a check's inputs; ``check_gradients`` only
checks the ones it is given. Each call of ``check_all`` draws each seed's
batch and initializes each (variant, seed)'s model once (``init_params``
reads only the variant), both read-only, and fills that model's replica
vector once: over three activations one model and one replica vector
serve three configurations, and one batch every configuration of its
seed. Nothing is kept across calls.

relu has a kink at zero, where no finite difference is trustworthy. A
coordinate is only compared when every relu input (candidate
pre-activations and cell states fed to the output activation, at every
step of every example) lies on the same side of the kink in the
unperturbed evaluation and in both perturbed ones; the trace keeps the
candidates' values, which are positive exactly where their
pre-activations are, so those are read instead. The +/- EPS evaluations
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


@lru_cache(maxsize=64)
def _replica_map(lay: Layout, units: int) -> tuple[Layout, np.ndarray, np.ndarray, tuple, tuple]:
    """The layout of R copies of ``lay``'s cell as one replica cell, ``where``, and the sweep's index arrays.

    R is ``units // n_h``, at least 1 and at most the number of vectors
    that take passes. ``where[r, j]`` is the position of copy r's
    coordinate j in the replica cell's vector, read off both vectors'
    positions. Then, for ``sweep_losses``: the coordinate each cell vector
    moves; per replica pass, its vectors, those that move a coordinate,
    their slots in the replica vector and their coordinates; and per head
    coordinate, its row of the head's features and the logit it moves.
    All are read-only.
    """
    cell = lay.fields["W_hy"][0].start  # the head's coordinates come last
    n_cell = 2 * cell + 1
    R = min(max(1, units // lay.n_h), n_cell)
    rep = layout(lay.variant, lay.n_in, R * lay.n_h, R * lay.n_out)
    at, slots = Params(lay, np.arange(lay.size)), Params(rep, np.arange(rep.size))  # each array's positions
    covered = np.bincount(np.concatenate([a.ravel() for a in at.values()]), minlength=lay.size)
    if (covered != 1).any():  # overlapping views or a gap would leave ``where`` wrong or unset
        j = int(np.argmax(covered != 1))
        raise ValueError(f"{lay.variant.value}: coordinate {j} is covered by {covered[j]} named arrays, not 1")
    where, diag = np.empty((R, lay.size), dtype=np.intp), np.arange(R)
    for name, a in at.items():
        if name.startswith("U_") or name == "W_hy":  # columns read the hidden state: copy r is diagonal block r
            where[:, a] = slots[name].reshape(R, a.shape[0], R, a.shape[1])[diag, :, diag]
        else:  # rows are units or classes: copy r is row block r
            where[:, a] = slots[name].reshape(R, *a.shape)

    coord = np.arange(-1, n_cell - 1) // 2  # vector k > 0 moves coordinate (k-1)//2
    passes = []
    for lo in range(0, n_cell, R):
        k = np.arange(lo, min(lo + R, n_cell))
        moved = k[k > 0]
        passes.append((k, moved, where[moved - lo, coord[moved]], coord[moved]))
    head = np.arange(lay.size - cell), np.concatenate([np.arange(lay.n_out).repeat(lay.n_h), np.arange(lay.n_out)])
    for a in (where, coord, *(a for one_pass in passes for a in one_pass), *head):
        a.flags.writeable = False
    return rep, where, coord, tuple(passes), head


def _replica(params: Params) -> tuple[Params, tuple]:
    """A replica cell holding R copies of ``params``, and its ``_replica_map``."""
    replica_map = _replica_map(params.layout, REPLICA_UNITS)
    replica = Params(replica_map[0])
    replica.vec[replica_map[1]] = params.vec
    return replica, replica_map


def sweep_losses(
    spec: VariantSpec, params: Params, seqs: np.ndarray, labels: np.ndarray, ws: Workspace,
    replica: tuple[Params, tuple],
) -> tuple[np.ndarray, np.ndarray]:
    """Mean loss over the time-major batch ``seqs`` (T, B, n_in) at every vector of the sweep.

    Vector 0 is the unperturbed one; vectors 2j+1 and 2j+2 add +EPS and
    -EPS to coordinate j of the parameter vector ``params.vec``. Also
    returns, per vector, whether its relu pattern equals vector 0's. Only
    vector 0 and the cell's coordinates take replica passes; every pass
    carves its trace from ``ws`` and is read before the next starts it
    over. The head's vectors move one of vector 0's logits, and one
    ``softmax_xent`` call takes every vector's logits. The passes run the
    cell of ``replica``, ``_replica(params)``, and leave it as it was.
    """
    lay, base = params.layout, params.vec
    replica, (_, _, coord, passes, (head_rows, head_logit)) = replica
    n, n_cell = 2 * base.size + 1, len(coord)
    work, R = replica.vec, replica.n_h // lay.n_h

    value = base[coord] + np.where(np.arange(n_cell) % 2, EPS, -EPS)
    B = len(labels)
    logits = np.empty((n, B, lay.n_out))
    same = np.ones(n, dtype=bool)
    for k, moved, slots, moved_coord in passes:
        work[slots] = value[moved]
        out, trace = forward_sequence(spec, replica, replica, seqs, ws)
        work[slots] = base[moved_coord]
        logits[k] = out.reshape(B, R, -1)[:, : len(k)].swapaxes(0, 1)  # column block r is replica r
        if k[0] == 0:
            h_T = trace.h[-1, : lay.n_h].copy()  # vector 0's final hidden state, (n_h, B)
        pattern = relu_pattern(trace)
        if pattern is not None:
            pattern = pattern.reshape(len(pattern), R, -1, B)[:, : len(k)]
            base_pattern = pattern[:, :1] if k[0] == 0 else base_pattern
            same[k] = (pattern == base_pattern).all(axis=(0, 2, 3))

    # The head is affine in W_hy and b_y and feeds nothing back: a step on
    # W_hy[i, j] moves vector 0's logit i by the step times h_T[j], one on b_y[i] by the step.
    feature = np.concatenate([np.tile(h_T, (lay.n_out, 1)), np.ones((lay.n_out, B))])  # a row per head coordinate
    for first, step in ((n_cell, EPS), (n_cell + 1, -EPS)):
        head = logits[first::2]
        head[...] = logits[0]
        head[head_rows, :, head_logit] += step * feature
    xent, _ = softmax_xent(logits.reshape(n * B, -1), np.tile(labels, n))
    return xent.reshape(n, B).sum(axis=1) / B, same


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
    spec: VariantSpec, seed: int, model: Params, batch: SequenceBatch, replica: tuple[Params, tuple], ws: Workspace,
) -> CheckResult:
    """Compare batch BPTT gradients against central differences for one configuration.

    ``model`` is the configuration's model, ``batch`` the sequences drawn
    from ``seed`` and ``replica`` the model's replica cell (``_replica``),
    as ``check_all`` builds them: all three are only read. The loss is the
    mean over the batch, and the relu kink rule covers all of it. Every
    pass carves from ``ws``.
    """
    _, grads, _ = batch_loss_and_grads(spec, model, model, batch, ws)
    analytic = grads.vec
    losses, same = sweep_losses(spec, model, np.swapaxes(batch.inputs, 0, 1), batch.labels, ws, replica)
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
    seeds: tuple[int, ...] = (0, 1, 2), variants: tuple[Variant, ...] = tuple(Variant),
    n_in: int = 3, n_h: int = 5, n_out: int = 4, T: int = 4, batch_size: int = 1,
) -> list[CheckResult]:
    """The verification matrix variants x activations x seeds, each a mean over ``batch_size`` sequences.

    Every activation is checked, in the order of ``Activation``. The
    configurations share one Workspace, each seed's batch and each
    (variant, seed)'s model and replica cell, all built by this call.
    """
    ws = Workspace()
    batches = {s: _batch(s, n_in, n_out, T, batch_size) for s in seeds}
    results = []
    for v in variants:  # init_params reads only the variant: one model per seed serves every activation
        specs = [VariantSpec.make(v, a) for a in Activation]
        models = {s: _model(specs[0], n_in, n_h, n_out, s) for s in seeds}
        replicas = {s: _replica(model) for s, model in models.items()}
        results += [check_gradients(spec, s, models[s], batches[s], replicas[s], ws) for spec in specs for s in seeds]
    return results


def _model(spec: VariantSpec, n_in: int, n_h: int, n_out: int, seed: int) -> Params:
    """``init_params``' model for ``seed``, over a read-only vector: the cell and the head."""
    model, _ = init_params(spec, n_in, n_h, n_out, seed)
    model.vec.flags.writeable = False
    return Params(model.layout, model.vec)  # views taken of a read-only vector are read-only


def _batch(seed: int, n_in: int, n_out: int, T: int, batch_size: int) -> SequenceBatch:
    """``batch_size`` uniform sequences of T steps and their labels from ``seed``'s gradcheck stream, read-only."""
    rng = stream(seed, TAG_GRADCHECK)
    batch = SequenceBatch(
        inputs=rng.uniform(0.0, 1.0, size=(batch_size, T, n_in)),
        labels=rng.integers(0, n_out, size=batch_size),
    )
    batch.inputs.flags.writeable = batch.labels.flags.writeable = False
    return batch
