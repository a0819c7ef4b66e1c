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

The forward passes share the batch axis: all the vectors that take one
run as columns of one batched ``forward_sequence`` of the model itself,
vector k owning columns k*B .. (k+1)*B of the tiled batch. A cell
coordinate enters the forward at one place only: it multiplies one row of
the operand [h_{t-1}; x_t; 1] into one pre-activation row (a dense-stack
entry (r, c) row ``dense_from`` + r by operand row c, ``u`` entry k row k
by h row k mod n_h, a point-wise ``b`` entry k row ``bias_from`` + k by
the bias row). So moving it by a step for one column is adding the step
times that operand entry to that pre-activation entry at every step,
which the forward's ``nudge`` does before any nonlinearity; each column
differs from a standalone forward pass of its vector only in rounding.
Where each coordinate enters, and the head's index arrays, are read once
per layout and cached (``_sweep_map``). Each configuration is one pass,
so its trace grows with the 2 P_cell + 1 vectors that take one (P_cell
the cell's coordinates): 2.76 MB for lstm at ``check_all``'s default
shapes and B = 3, 11.1 MB at the largest shape of the property tests
(lstm, n_in 4, n_h 7, T 5, B 4), but about 3.9 GB for lstm at n_h = 100
and T = 4, a shape no caller checks.

``check_all`` alone builds a check's inputs; ``check_gradients`` only
checks the ones it is given. Each call of ``check_all`` draws each seed's
batch and initializes each (variant, seed)'s model once (``init_params``
reads only the variant), both read-only: over three activations one
model serves three configurations, and one batch every configuration of
its seed. Nothing is kept across calls.

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
from .cells import Activation, Layout, Params, Variant, VariantSpec, init_params
from .data import SequenceBatch
from .rng import TAG_GRADCHECK, stream

EPS = 1e-5
REL_TOL = 1e-4
_ERR_FLOOR = 1e-4


def relu_pattern(trace: Trace) -> np.ndarray | None:
    """Which relu inputs of a forward pass are positive; None when the cell has no relu."""
    if trace.activation is not Activation.RELU:
        return None
    on = trace.pre[:, -trace.h.shape[1]:] > 0.0
    if trace.c is None:
        return on
    return np.concatenate([on, trace.c[1:] > 0.0])


@lru_cache(maxsize=64)
def _sweep_map(lay: Layout) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Per cell coordinate of ``lay``, the pre-activation row and the operand row it joins; and the head's index arrays.

    Coordinate j is moved by adding its step times operand row
    ``oprow[j]`` of [h_{t-1}; x_t; 1] to pre-activation row ``row[j]``
    (module docstring). Per head coordinate: its row of the head's
    features and the logit it moves. All are read-only.
    """
    entry = {  # per stack, the (row, operand row) of the entry at each index
        "u": lambda k: (k, k % lay.n_h),
        "b": lambda k: (lay.bias_from + k, lay.n_h + lay.n_in),
        "dense": lambda r, c: (lay.dense_from + r, c),
    }
    row, oprow = (Params(lay, np.zeros(lay.size, dtype=np.intp)) for _ in range(2))
    for kind, stack in row.stacks.items():
        stack[...], oprow.stacks[kind][...] = entry[kind](*np.indices(stack.shape))
    cell = lay.fields["W_hy"][0].start  # the head's coordinates come last
    head = np.arange(lay.size - cell), np.concatenate([np.arange(lay.n_out).repeat(lay.n_h), np.arange(lay.n_out)])
    out = row.vec[:cell], oprow.vec[:cell], head
    for a in (*out[:2], *head):
        a.flags.writeable = False
    return out


def sweep_losses(
    spec: VariantSpec, params: Params, seqs: np.ndarray, labels: np.ndarray, ws: Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean loss over the time-major batch ``seqs`` (T, B, n_in) at every vector of the sweep.

    Vector 0 is the unperturbed one; vectors 2j+1 and 2j+2 add +EPS and
    -EPS to coordinate j of the parameter vector ``params.vec``. Also
    returns, per vector, whether its relu pattern equals vector 0's. Only
    vector 0 and the cell's coordinates take forward passes, all as one
    batch side by side, vector 0 in its first B columns, its trace carved
    from ``ws``. The head's vectors move one of vector 0's logits, and one
    ``softmax_xent`` call takes every vector's logits. ``params`` is only
    read.
    """
    lay = params.layout
    row, oprow, (head_rows, head_logit) = _sweep_map(lay)
    T, B, _ = seqs.shape
    n, n_cell = 2 * lay.size + 1, 2 * len(row) + 1
    col = np.arange(B, n_cell * B)  # vector k > 0 moves coordinate (k-1)//2 in columns k*B .. (k+1)*B
    at, by = (np.repeat(a, 2 * B) * (n_cell * B) + col for a in (row, oprow))
    step = np.repeat(np.tile([EPS, -EPS], len(row)), B)
    out, trace = forward_sequence(spec, params, params, np.tile(seqs, (1, n_cell, 1)), ws, nudge=(at, by, step))
    logits = np.empty((n, B, lay.n_out))
    logits[:n_cell] = out.reshape(n_cell, B, -1)
    same = np.ones(n, dtype=bool)
    pattern = relu_pattern(trace)
    if pattern is not None:
        pattern = pattern.reshape(*pattern.shape[:2], n_cell, B)
        same[:n_cell] = (pattern == pattern[:, :, :1]).all(axis=(0, 1, 3))

    # The head is affine in W_hy and b_y and feeds nothing back: a step on
    # W_hy[i, j] moves vector 0's logit i by the step times h_T[j], one on b_y[i] by the step.
    h_T = trace.h[-1, :, :B]  # vector 0's final hidden state, (n_h, B)
    feature = np.concatenate([np.tile(h_T, (lay.n_out, 1)), np.ones((lay.n_out, B))])  # a row per head coordinate
    for first, head_step in ((n_cell, EPS), (n_cell + 1, -EPS)):
        head = logits[first::2]
        head[...] = logits[0]
        head[head_rows, :, head_logit] += head_step * feature
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


def check_gradients(spec: VariantSpec, seed: int, model: Params, batch: SequenceBatch, ws: Workspace) -> CheckResult:
    """Compare batch BPTT gradients against central differences for one configuration.

    ``model`` is the configuration's model and ``batch`` the sequences
    drawn from ``seed``, as ``check_all`` builds them: both are only read. The loss is the
    mean over the batch, and the relu kink rule covers all of it. Both
    passes carve from ``ws``.
    """
    _, grads, _ = batch_loss_and_grads(spec, model, model, batch, ws)
    analytic = grads.vec
    losses, same = sweep_losses(spec, model, np.swapaxes(batch.inputs, 0, 1), batch.labels, ws)
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
    (variant, seed)'s model, all built by this call.
    """
    ws = Workspace()
    batches = {s: _batch(s, n_in, n_out, T, batch_size) for s in seeds}
    results = []
    for v in variants:  # init_params reads only the variant: one model per seed serves every activation
        specs = [VariantSpec.make(v, a) for a in Activation]
        models = {s: _model(specs[0], n_in, n_h, n_out, s) for s in seeds}
        results += [check_gradients(spec, s, models[s], batches[s], ws) for spec in specs for s in seeds]
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
