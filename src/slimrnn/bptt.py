"""Batch-major forward pass, softmax cross-entropy, and backpropagation through time.

One engine runs a whole batch at once, time step by time step, after the
fused-RNN recipe of Appleyard, Kocisky & Blunsom (2016, arXiv:1604.01946).
Pre-activations live in one (T, m, B) array, m = (g + 1) * n_h: an n_h-row
block per learned gate (point-wise gates first, then dense ones, each in
i, f, o order), then the candidate. The batch is the innermost axis, so
each gate block of a step is one contiguous (n_h, B) slab for the
elementwise work. The k dense blocks sit together at the bottom, so

* the forward computes every input projection and bias before the time
  loop as one (T*B, n_in) @ (n_in, k*n_h) product, and each step adds a
  single (k*n_h, n_h) @ (n_h, B) recurrent product;
* point-wise gates add u_g * h_{t-1} per step, and fixed gates are
  broadcast constants that produce no parameter gradients;
* every step writes in place into arrays carved once per call, which
  together form the Trace the backward pass reads: each gate's sigmoid
  overwrites its pre-activation, and only the candidate block keeps both.

One memory plan, ``_carved``, names every array of a forward pass and of
its backward pass with its shape, in carve order. ``Workspace.carve`` cuts
them all from one flat buffer, which only grows, so a training run
allocates its pages once, at its first batch. The forward hands its
backward's arrays on in the trace, so the backward never touches a
workspace. The input projection is dead before the time loop starts, so
it lies in the backward pass's room, and the backward pass keeps only the
live trace plus one step's scratch: every derivative factor is formed per
step. The trace holds its own copy of the inputs, and the returned logits
and gradients are fresh arrays the caller owns.

Classification reads the final hidden state only: logits = W_hy h_T + b_y.
The backward pass is hand-derived and reads all it needs from the trace
(the pullback of reverse-mode AD). It walks the trace in reverse carrying
dL/dh_t and dL/dc_t, builds each step's pre-activation deltas in one
(m, B) slab, carries them back with one (n_h, k*n_h) @ (k*n_h, B) product
and copies them into an array laid out so that all T*B of them are side
by side (``_stacked``), as are h_0 .. h_{T-1}; every weight gradient is
then one product over them.
The parameters are one flat vector laid out in the same block order
(``cells.Layout``), so the stacked W, U and biases are views into it, and
the gradients are a ``cells.Params`` of the same layout: each stacked
product is written straight into its view of one gradient vector.

All seven cells run the same time loop in each direction. The srn is the
cell without a cell state: its only block is the candidate, whose value
is h_t itself, the loops skip the cell-state lines, and its candidate
delta takes dL/dh_t directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cells import (
    GATE_NAMES, Activation, Layout, Params, VariantSpec, activation_derivative, apply_activation, sigmoid,
)


class Workspace:
    """Scratch memory the engine reuses across calls: one flat float64 buffer.

    ``carve`` cuts the arrays of the memory plan ``_carved`` from it. The
    buffer only ever grows, to the largest plan it has served, and the
    arrays of the last (layout, T, B) are kept to be handed out again.
    """

    def __init__(self) -> None:
        self._buf = np.empty(0)
        self._last = None, {}  # the (layout, T, B) last carved for, and its arrays

    def carve(self, lay: Layout, T: int, B: int) -> dict[str, np.ndarray]:
        """The uninitialized arrays of ``_carved(lay, T, B)``, cut in plan order from the buffer.

        A carve for another (layout, T, B) may hand their memory out again.
        """
        if self._last[0] != (lay, T, B):
            plan = _carved(lay, T, B)
            ends = list(itertools.accumulate(map(math.prod, plan.values())))
            if ends[-1] > len(self._buf):
                self._buf = np.empty(ends[-1])
            cuts = zip(plan.items(), [0, *ends], ends)
            self._last = (lay, T, B), {name: self._buf[i:j].reshape(shape) for (name, shape), i, j in cuts}
        return self._last[1]


def _carved(lay: Layout, T: int, B: int) -> dict[str, tuple[int, ...]]:
    """The memory plan: the name and shape of every array of a forward pass and then its backward pass.

    The forward's are the trace's: x, pre, h and, for memory cells, act, c
    and, unless o is fixed at 1, sig_c. The backward's are every step's
    ``deltas``, one step's deltas ``d`` and gate and act' factors, ``dc``
    for memory cells, and h_0 .. h_{T-1} as ``hs``. The input projection,
    (k*n_h, T*B), lies in the room of ``deltas``.
    """
    n_h, gr, m = lay.n_h, lay.gate_rows, lay.gate_rows + lay.n_h

    def stacked(r: int) -> tuple[int, int, int]:  # see _stacked
        return (T, r, B) if 1 in (T, r, B) else (r, T, B)

    plan = {"x": (T, B, lay.n_in), "pre": (T, m, B), "h": (T + 1, n_h, B)}
    if lay.memory:
        plan.update(act=(T, n_h, B), c=(T + 1, n_h, B), **({} if "o" in lay.unit else {"sig_c": (T, n_h, B)}))
    plan.update(deltas=stacked(m), d=(m, B), dgates=(gr, B), dact=(n_h, B))
    if lay.memory:
        plan["dc"] = (n_h, B)
    plan["hs"] = stacked(n_h)
    return plan


class Step(NamedTuple):
    """One time step of a trace: candidate pre-activation and cell state, (n_h, B) each."""

    a_c: np.ndarray
    c: np.ndarray | None  # None for the srn, which keeps no cell state


@dataclass
class Trace:
    """Forward intermediates of one batch, kept for the backward pass.

    ``x`` (T, B, n_in) copies the inputs. ``pre`` (T, m, B), in the block
    layout of the module docstring, holds each gate block's value (its
    sigmoid) and the candidate block's pre-activation; ``act`` (T, n_h, B)
    holds the candidate's value, the cell activation of that
    pre-activation. ``h`` (T+1, n_h, B) holds the hidden states from the
    zero state at index 0. Memory cells also keep ``c`` (T+1, n_h, B), the
    cell states from zero, and ``sig_c`` (T, n_h, B) = act(c_t), which is a
    view of ``h[1:]`` when the output gate is fixed at 1; both are None for
    the srn. Iterating yields one Step per time step.

    ``cell``, ``head`` and ``activation`` are what its forward pass used,
    and ``room`` is every array it carved, its backward pass's included;
    the trace stays valid only until the next ``forward_sequence`` on the
    workspace it was carved from.
    """

    x: np.ndarray
    pre: np.ndarray
    act: np.ndarray
    h: np.ndarray
    c: np.ndarray | None
    sig_c: np.ndarray | None
    cell: Params
    head: Params
    activation: Activation
    room: dict[str, np.ndarray]

    def __iter__(self):
        cell_states = [None] * len(self.pre) if self.c is None else self.c[1:]
        return map(Step, self.pre[:, -self.h.shape[1] :], cell_states)


def _gate_values(lay: Layout, pre: np.ndarray, T: int) -> list[np.ndarray | list[float] | None]:
    """i, f, o per step: (T, n_h, B) views of ``pre``'s gate rows, a fixed value repeated, or None (srn)."""
    gates = [pre[:, lay.block[n]] if n in lay.block else lay.fixed.get(n) for n in GATE_NAMES]
    return [[g] * T if isinstance(g, float) else g for g in gates]


def _stacked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A carved array as (T, r, B) and, as a view, side by side as (r, T*B).

    Column t*B + b of the second holds [t, :, b] of the first. When T, r
    or B is 1 it is carved (T, r, B), so the B = 1 form is F-ordered as the
    pinned bits were made (a C-ordered one changes the BLAS kernel of the
    products that read it, and the rounding), else (r, T, B).
    """
    if 1 in a.shape:
        return a, a.transpose(1, 0, 2).reshape(a.shape[1], -1)
    return a.transpose(1, 0, 2), a.reshape(len(a), -1)


def forward_sequence(
    spec: VariantSpec, p: Params, head: Params, seq: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, Trace]:
    """Run the cell from a zero state over one sequence or a time-major batch.

    The cell's arrays are read from ``p`` and the head's from ``head``
    (``init_params`` returns one Params for both). ``seq`` is one sequence
    (T, n_in), or a list of T input vectors, or a batch (T, B, n_in).
    Returns the head logits of the final hidden state, (n_out,) or
    (B, n_out), and the Trace that the backward pass consumes. The trace
    and its copy of the inputs are carved from ``ws`` (or a private one),
    together with its backward pass's arrays.
    """
    x = np.asarray(seq, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[:, None, :]
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[1] == 0 or x.shape[2] != p.n_in:
        raise ValueError(
            f"inputs of shape {x.shape} are not a nonempty (T, [B,] n_in={p.n_in}) array"
        )
    T, B, n_in = x.shape
    n_h = p.n_h
    lay = p.layout
    if lay.variant is not spec.variant:
        raise ValueError(f"parameters of {lay.variant.value} given for {spec.variant.value}")
    room = (Workspace() if ws is None else ws).carve(lay, T, B)
    x_in, x = x, room["x"]
    x[...] = x_in
    gr, d0, b0 = lay.gate_rows, lay.dense_from, lay.bias_from
    W, U, b = (p.stacks[k] for k in "WUb")

    pre, h = room["pre"], room["h"]
    h[0] = 0.0
    if lay.memory:
        cand, c = room["act"], room["c"]
        c[0] = 0.0
        sig_c = room.get("sig_c", h[1:])
    else:  # the srn's only block is the candidate, whose value is h_t itself
        cand = h[1:]
        c = sig_c = None
    proj = room["deltas"].reshape(-1)[: len(W) * T * B].reshape(len(W), -1)  # dead before the deltas are written
    np.matmul(W, x.reshape(T * B, n_in).T, out=proj)
    np.add(proj.reshape(-1, T, B).transpose(1, 0, 2), b[d0 - b0 :, None], out=pre[:, d0:])

    i_unit, o_unit = "i" in lay.unit, "o" in lay.unit
    i, f, o = _gate_values(lay, pre, T)
    if d0:  # point-wise gates: u_g * h_{t-1}, plus a bias on rows b0 .. d0
        u = p.stacks["u"].reshape(-1, n_h, 1)
        pre_pw = pre[:, :d0].reshape(T, len(u), n_h, B)
        b_pw = b[: d0 - b0, None]
    for t in range(T):
        pre[t, d0:] += U @ h[t]
        if d0:
            np.multiply(u, h[t], out=pre_pw[t])
            if b0 < d0:
                pre[t, b0:d0] += b_pw
        if gr:
            sigmoid(pre[t, :gr], out=pre[t, :gr])
        apply_activation(spec.activation, pre[t, gr:], out=cand[t])
        if not lay.memory:
            continue
        np.multiply(f[t], c[t], out=c[t + 1])
        c[t + 1] += cand[t] if i_unit else i[t] * cand[t]
        apply_activation(spec.activation, c[t + 1], out=sig_c[t])
        if not o_unit:
            np.multiply(o[t], sig_c[t], out=h[t + 1])

    logits = (head["W_hy"] @ h[T]).T + head["b_y"]
    trace = Trace(x=x, pre=pre, act=cand, h=h, c=c, sig_c=sig_c, cell=p, head=head, activation=spec.activation,
                  room=room)
    return (logits[0] if single else logits), trace


def softmax_xent(logits: np.ndarray, label) -> tuple[float | np.ndarray, np.ndarray]:
    """Cross-entropy of softmax(logits) against integer labels.

    Takes one logit vector (n,) and an int label, or a batch (B, n) and a
    label array (B,). Uses max-subtraction so huge logits cannot overflow.
    Returns the loss (a float, or per-example losses (B,)) and its gradient
    with respect to the logits (softmax minus one-hot), shaped like
    ``logits``.
    """
    z = np.atleast_2d(logits)
    labels = np.atleast_1d(label)
    n = z.shape[1]
    if labels.shape != (len(z),) or labels.min() < 0 or labels.max() >= n:
        raise ValueError(f"labels {label} do not fit {len(z)} rows of {n} classes")
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(len(z))
    loss = np.log(total[:, 0]) - z[rows, labels]
    dlogits = e / total
    dlogits[rows, labels] -= 1.0
    if np.ndim(logits) == 1:
        return float(loss[0]), dlogits[0]
    return loss, dlogits


def backward_sequence(trace: Trace, dlogits: np.ndarray) -> Params:
    """Exact loss gradients for every trainable array, given a forward trace.

    ``dlogits`` is the loss gradient with respect to the logits, (n_out,)
    for a single sequence or (B, n_out) for a batch; the gradients are
    summed over the batch rows and returned as a Params of the traced
    cell's layout. The deltas lie in the arrays the trace's forward carved
    for them, so the trace may be walked back any number of times.
    """
    T, B, n_in = trace.x.shape
    p, head, act, room = trace.cell, trace.head, trace.activation, trace.room
    dl = np.atleast_2d(dlogits)
    if dl.shape != (B, head.n_out):
        raise ValueError(f"dlogits shape {np.shape(dlogits)} does not match {B} rows of the head")

    lay, n_h = p.layout, p.n_h
    gr, d0 = lay.gate_rows, lay.dense_from
    pre, cand, h, c, sig_c = trace.pre, trace.act, trace.h, trace.c, trace.sig_c
    Ut = p.stacks["U"].T
    dh = head["W_hy"].T @ dl.T
    # Every step's deltas, also side by side as (m, T*B) against inputs and
    # hidden states stacked in the same (t, b) order; then one step's deltas
    # and derivative factors.
    steps, deltas = _stacked(room["deltas"])
    d, dgates, dact = room["d"], room["dgates"], room["dact"]

    i, f, o = _gate_values(lay, pre, T)
    if lay.memory:
        dc = room["dc"]
        dc[...] = 0.0
    sl = lay.block
    if d0:
        u = p.stacks["u"].reshape(-1, n_h)
        d_pw = d[:d0].reshape(len(u), n_h, B)
    for t in range(T - 1, -1, -1):
        if "o" in sl:  # h_t = o * act(c_t)
            np.multiply(dh, sig_c[t], out=d[sl["o"]])
        if lay.memory:  # dc_t picks up dh_t * o_t * act'(c_t)
            activation_derivative(act, c[t + 1], sig_c[t], out=dact)
            if "o" not in lay.unit:
                dact *= o[t]
            dc += dh * dact
        else:
            dc = dh
        if "f" in sl:  # c_t = f * c_prev + i * cand
            np.multiply(dc, c[t], out=d[sl["f"]])
        if "i" in sl:
            np.multiply(dc, cand[t], out=d[sl["i"]])
        if gr:
            d[:gr] *= activation_derivative(Activation.SIGMOID, pre[t, :gr], pre[t, :gr], out=dgates)
        # the candidate delta is dc_t * i_t * act'(a_c), and dc_t is dh_t for the srn
        activation_derivative(act, pre[t, gr:], cand[t], out=dact)
        if lay.memory and "i" not in lay.unit:
            dact *= i[t]
        np.multiply(dc, dact, out=d[gr:])
        dh = Ut @ d[d0:]
        if d0:
            dh += np.einsum("gnb,gn->nb", d_pw, u)
        steps[t] = d
        if lay.memory:
            dc *= f[t]

    hs, h_prev = _stacked(room["hs"])
    hs[...] = h[:T]
    grads = Params(lay)
    g = grads.stacks
    np.matmul(deltas[d0:], trace.x.reshape(T * B, n_in), out=g["W"])
    np.matmul(deltas[d0:], h_prev.T, out=g["U"])
    deltas[lay.bias_from :].sum(axis=1, out=g["b"])
    if d0:
        np.einsum("gnk,nk->gn", deltas[:d0].reshape(-1, n_h, T * B), h_prev, out=g["u"].reshape(-1, n_h))
    np.matmul(dl.T, h[T].T, out=grads["W_hy"])
    dl.sum(axis=0, out=grads["b_y"])
    return grads


def batch_loss_and_grads(
    spec: VariantSpec, p: Params, head: Params, batch, ws: Workspace | None = None
) -> tuple[float, Params, int]:
    """Mean loss and mean gradients over a batch, plus the correct count.

    The whole batch runs through one forward and one backward pass; the
    mean is taken by scaling the logit gradients by 1/B before the
    backward pass, so every weight gradient is one product over the
    stacked T*B deltas. Results are bitwise reproducible for a given seed
    and batch size; they match a per-example reduction to rounding only.
    Argmax ties resolve toward the lowest class index. The trace and the
    deltas are carved from ``ws``, or from the forward's private workspace
    when none is given; the results are bitwise the same either way.
    """
    size = len(batch.labels)
    logits, trace = forward_sequence(spec, p, head, np.swapaxes(batch.inputs, 0, 1), ws)
    labels = np.asarray(batch.labels)
    losses, dlogits = softmax_xent(logits, labels)
    grads = backward_sequence(trace, dlogits / size)
    correct = int(np.count_nonzero(np.argmax(logits, axis=1) == labels))
    return float(losses.sum() / size), grads, correct
