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
* every step writes in place into arrays taken once per call, which
  together form the Trace the backward pass reads.

Those arrays, and the backward pass's own, come from a ``Workspace``: a
flat buffer that grows to the largest call it has served and is then
reused, so a training run stops asking the allocator (and the kernel) for
fresh pages on every batch; a call without one uses a private fresh one.
The trace holds its own copy of the inputs, and the returned logits and
gradients are fresh arrays the caller owns.

Classification reads the final hidden state only: logits = W_hy h_T + b_y.
The backward pass is hand-derived. It walks the trace in reverse carrying
dL/dh_t and dL/dc_t, writes each step's pre-activation deltas with one
(n_h, k*n_h) @ (k*n_h, B) product per step, and then forms every weight
gradient with one product over the stacked T*B deltas.
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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cells import (
    GATE_NAMES, Activation, Layout, Params, VariantSpec, activation_derivative, apply_activation, sigmoid,
)


class Workspace:
    """Scratch memory the engine reuses across calls: one flat float64 buffer.

    ``forward_sequence`` starts it over and carves its trace from it, and
    ``backward_sequence`` carves its own arrays after the trace. A request
    that does not fit gets a fresh array; the next start then grows the
    buffer to the total the last call asked for, so once a run has served
    its largest batch every call reuses the same memory. A new one hands
    out fresh arrays only.
    """

    def __init__(self) -> None:
        self._buf = np.empty(0)
        self._used = 0

    def restart(self) -> None:
        """Start over, invalidating every array taken so far."""
        if self._used > len(self._buf):
            self._buf = np.empty(self._used)
        self._used = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialized float64 array of ``shape``, valid until the next ``restart``."""
        start = self._used
        self._used += math.prod(shape)
        if self._used > len(self._buf):
            return np.empty(shape)
        return self._buf[start : self._used].reshape(shape)


class Step(NamedTuple):
    """One time step of a trace: candidate pre-activation and cell state, (n_h, B) each."""

    a_c: np.ndarray
    c: np.ndarray | None  # None for the srn, which keeps no cell state


@dataclass
class Trace:
    """Forward intermediates of one batch, kept for the backward pass.

    ``x`` (T, B, n_in) copies the inputs. ``pre`` and ``act`` (T, m, B) hold
    the pre-activations in the block layout of the module docstring and
    their values: the sigmoid for gate blocks, the cell activation for the
    candidate block. ``h`` (T+1, n_h, B) holds the hidden states from the
    zero state at index 0. Memory cells also keep ``c`` (T+1, n_h, B), the
    cell states from zero, and ``sig_c`` (T, n_h, B) = act(c_t), which is a
    view of ``h[1:]`` when the output gate is fixed at 1; both are None for
    the srn. Iterating yields one Step per time step.

    A trace lives in its Workspace's buffer and stays valid only until the
    next ``forward_sequence`` on that workspace.
    """

    x: np.ndarray
    pre: np.ndarray
    act: np.ndarray
    h: np.ndarray
    c: np.ndarray | None
    sig_c: np.ndarray | None

    def __iter__(self):
        cell_states = [None] * len(self.pre) if self.c is None else self.c[1:]
        return map(Step, self.pre[:, -self.h.shape[1] :], cell_states)


def _gate_values(lay: Layout, act: np.ndarray) -> list[np.ndarray | float | None]:
    """i, f, o over the trace: (T, n_h, B) views of ``act``, the fixed value, or None (srn)."""
    return [act[:, lay.block[n]] if n in lay.block else lay.fixed.get(n) for n in GATE_NAMES]


def _per_step(gate, T: int):
    """A gate's value at each step: rows of its trace view, or its constant repeated."""
    return [gate] * T if isinstance(gate, float) else gate


def _side_by_side(a: np.ndarray, ws: Workspace) -> np.ndarray:
    """(T, r, B) as (r, T*B), column t*B + b holding a[t, :, b].

    For a C-contiguous ``a`` this is a view when T, r or B is 1, else a
    copy into an array of ``ws``. Copying the B = 1 view (F-ordered) too
    would change the BLAS kernel of the products that read it, and with
    it the rounding.
    """
    T, r, B = a.shape
    v = a.transpose(1, 0, 2)
    if 1 in (T, r, B):
        return v.reshape(r, T * B)
    out = ws.take((r, T * B))
    out.reshape(r, T, B)[...] = v
    return out


def _layout_of(spec: VariantSpec, p: Params) -> Layout:
    if p.layout.variant is not spec.variant:
        raise ValueError(f"parameters of {p.layout.variant.value} given for {spec.variant.value}")
    return p.layout


def forward_sequence(
    spec: VariantSpec, p: Params, head: Params, seq: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, Trace]:
    """Run the cell from a zero state over one sequence or a time-major batch.

    The cell's arrays are read from ``p`` and the head's from ``head``
    (``init_params`` returns one Params for both). ``seq`` is one sequence
    (T, n_in), or a list of T input vectors, or a batch (T, B, n_in).
    Returns the head logits of the final hidden state, (n_out,) or
    (B, n_out), and the Trace that the backward pass consumes. The trace
    and its copy of the inputs are carved from ``ws`` (starting it over)
    or from a private fresh Workspace.
    """
    x = np.asarray(seq, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[:, None, :]
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[1] == 0 or x.shape[2] != p.n_in:
        raise ValueError(
            f"inputs of shape {x.shape} are not a nonempty (T, [B,] n_in={p.n_in}) array"
        )
    ws = Workspace() if ws is None else ws
    ws.restart()
    x_in, x = x, ws.take(x.shape)
    x[...] = x_in
    T, B, n_in = x.shape
    n_h = p.n_h
    lay = _layout_of(spec, p)
    gr, d0, b0 = lay.gate_rows, lay.dense_from, lay.bias_from
    W, U, b = (p.stacks[k] for k in "WUb")

    pre = ws.take((T, gr + n_h, B))
    proj = np.matmul(W, x.reshape(T * B, n_in).T, out=ws.take((len(W), T * B)))
    np.add(proj.reshape(-1, T, B).transpose(1, 0, 2), b[d0 - b0 :, None], out=pre[:, d0:])

    h = ws.take((T + 1, n_h, B))
    h[0] = 0.0
    if lay.memory:
        act_ = ws.take(pre.shape)
        c = ws.take(h.shape)
        c[0] = 0.0
        sig_c = h[1:] if "o" in lay.unit else ws.take((T, n_h, B))
    else:  # the srn's only block is the candidate, whose value is h_t itself
        act_ = h[1:]
        c = sig_c = None
    i_unit, o_unit = "i" in lay.unit, "o" in lay.unit
    i, f, o = (_per_step(g, T) for g in _gate_values(lay, act_))
    cand = act_[:, gr:]
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
            sigmoid(pre[t, :gr], out=act_[t, :gr])
        apply_activation(spec.activation, pre[t, gr:], out=cand[t])
        if not lay.memory:
            continue
        np.multiply(f[t], c[t], out=c[t + 1])
        c[t + 1] += cand[t] if i_unit else i[t] * cand[t]
        apply_activation(spec.activation, c[t + 1], out=sig_c[t])
        if not o_unit:
            np.multiply(o[t], sig_c[t], out=h[t + 1])

    logits = (head["W_hy"] @ h[T]).T + head["b_y"]
    trace = Trace(x=x, pre=pre, act=act_, h=h, c=c, sig_c=sig_c)
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


def backward_sequence(
    spec: VariantSpec, p: Params, head: Params, trace: Trace, dlogits: np.ndarray, ws: Workspace | None = None
) -> Params:
    """Exact loss gradients for every trainable array, given a forward trace.

    ``dlogits`` is the loss gradient with respect to the logits, (n_out,)
    for a single sequence or (B, n_out) for a batch; the gradients are
    summed over the batch rows and returned as a Params of ``p``'s layout.
    The deltas are carved from ``ws`` (the trace's) after the trace, or
    from a private fresh Workspace.
    """
    if len(trace.pre) == 0:
        raise ValueError("empty trace (was forward_sequence run?)")
    T, B, n_in = trace.x.shape
    n_h = p.n_h
    if n_in != p.n_in or trace.h.shape[1] != n_h:
        raise ValueError("trace does not match the given parameters")
    dl = np.atleast_2d(dlogits)
    if dl.shape != (B, head.n_out):
        raise ValueError(f"dlogits shape {np.shape(dlogits)} does not match {B} rows of the head")

    lay = _layout_of(spec, p)
    gr, d0 = lay.gate_rows, lay.dense_from
    pre, act_, h, c, sig_c = trace.pre, trace.act, trace.h, trace.c, trace.sig_c
    act = spec.activation
    Ut = p.stacks["U"].T
    dh = head["W_hy"].T @ dl.T
    ws = Workspace() if ws is None else ws
    dpre = ws.take(pre.shape)

    i, f, o = _gate_values(lay, act_)
    f_t = _per_step(f, T)
    cand = act_[:, gr:]
    gates = act_[:, :gr]
    dgates = activation_derivative(Activation.SIGMOID, gates, gates, ws.take(gates.shape))
    if lay.memory:  # dc_t picks up dh_t * o_t * act'(c_t)
        dc_from_dh = activation_derivative(act, c[1:], sig_c, ws.take(sig_c.shape))
        if "o" not in lay.unit:
            dc_from_dh *= o
        dc = ws.take((n_h, B))
        dc[...] = 0.0
    # the candidate delta is dc_t * i_t * act'(a_c), and dc_t is dh_t for the srn
    dcand = activation_derivative(act, pre[:, gr:], cand, ws.take(cand.shape))
    if lay.memory and "i" not in lay.unit:
        dcand *= i
    sl = lay.block
    if d0:
        u = p.stacks["u"].reshape(-1, n_h)
        dpre_pw = dpre[:, :d0].reshape(T, len(u), n_h, B)
    for t in range(T - 1, -1, -1):
        d = dpre[t]
        if "o" in sl:  # h_t = o * act(c_t)
            np.multiply(dh, sig_c[t], out=d[sl["o"]])
        if lay.memory:
            dc += dh * dc_from_dh[t]
        else:
            dc = dh
        if "f" in sl:  # c_t = f * c_prev + i * cand
            np.multiply(dc, c[t], out=d[sl["f"]])
        if "i" in sl:
            np.multiply(dc, cand[t], out=d[sl["i"]])
        if gr:
            d[:gr] *= dgates[t]
        np.multiply(dc, dcand[t], out=d[gr:])
        dh = Ut @ d[d0:]
        if d0:
            dh += np.einsum("gnb,gn->nb", dpre_pw[t], u)
        if lay.memory:
            dc *= f_t[t]

    # Every step's deltas side by side, (m, T*B), against inputs and hidden
    # states stacked in the same (t, b) order.
    deltas = _side_by_side(dpre, ws)
    h_prev = _side_by_side(h[:T], ws)
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
    Argmax ties resolve toward the lowest class index. A workspace, if
    given, holds the trace and the deltas; the results are bitwise those
    of a call without one.
    """
    size = len(batch.labels)
    logits, trace = forward_sequence(spec, p, head, np.swapaxes(batch.inputs, 0, 1), ws)
    labels = np.asarray(batch.labels)
    losses, dlogits = softmax_xent(logits, labels)
    grads = backward_sequence(spec, p, head, trace, dlogits / size, ws)
    correct = int(np.count_nonzero(np.argmax(logits, axis=1) == labels))
    return float(losses.sum() / size), grads, correct
