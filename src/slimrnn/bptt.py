"""Batch-major forward pass, softmax cross-entropy, and backpropagation through time.

One engine runs a whole batch at once, time step by time step, after the
fused-RNN recipe of Appleyard, Kocisky & Blunsom (2016, arXiv:1604.01946).
Pre-activations live in one (T, m, B) array, m = (g + 1) * n_h: an n_h-row
block per learned gate (point-wise gates first, then dense ones, each in
i, f, o order), then the candidate. The batch is the innermost axis, so
each gate block of a step is one contiguous (n_h, B) slab for the
elementwise work. The k dense blocks sit together at the bottom, so

* the forward computes every input projection and bias before the time
  loop, and each step adds the recurrent products U h_{t-1}. With B > 1
  and more than one dense row, the projection is one (k*n_h, n_in) @
  (n_in, B) product per step, written straight into ``pre``'s dense rows,
  and the recurrent product is one (n_h, n_h) @ (n_h, B) product per
  dense block: on OpenBLAS at the paper's shapes both beat one product
  over all T*B columns, whose bias add must transpose it into ``pre``, and
  one stacked (k*n_h, n_h) product. At B = 1, or with one dense row, those
  products would be matrix-vector ones, whose rounding differs, so there
  the forward keeps the single (k*n_h, n_in) @ (n_in, T*B) projection and
  the stacked recurrent product. A Trace picks the form once;
* point-wise gates add u_g * h_{t-1} per step, and fixed gates are
  broadcast constants that produce no parameter gradients;
* every step writes in place into the arrays of a Trace: each block's
  value (a gate's sigmoid, the candidate's activation) overwrites its
  pre-activation, and each derivative factor is formed from a value.

One memory plan, ``_carved``, names every array of a forward pass and of
its backward pass with its shape, in carve order. ``Workspace.carve`` cuts
them all from one flat buffer, which only grows, so a training run
allocates its pages once, at its first batch, and builds one Trace per
(layout, T, B): the arrays and every view the two loops take of them, each
step's included, so that a call indexes nothing per step. The forward
fills that Trace and returns it; the backward reads it, never a
workspace. The forward's scratch lies in the backward's room, and the
backward keeps only the live trace plus one step's scratch: every
derivative factor is formed per step, and act(c_t), which h_t = o_t *
act(c_t) reads, is recomputed from the kept c_t one step at a time
instead of being kept for every step (Chen et al. 2016, "Training Deep
Nets with Sublinear Memory Cost", at the scale of one step). The trace
holds its own copy of the inputs, and the returned logits and gradients
are fresh arrays the caller owns.

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
is h_t itself (its ``pre`` is a view of h_1 .. h_T), the loops skip the
cell-state lines, and its candidate delta takes dL/dh_t directly.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .cells import (
    ACTIVATIONS, GATE_NAMES, Activation, Layout, Params, VariantSpec, sigmoid,
)


class Workspace:
    """Scratch memory the engine reuses across calls: one flat float64 buffer.

    ``carve`` cuts the arrays of the memory plan ``_carved`` from it. The
    buffer only ever grows, to the largest plan it has served. Each Trace
    cut from the current buffer, one per (layout, T, B), is handed out
    again; all of them are dropped when the buffer grows.
    """

    def __init__(self) -> None:
        self._buf = np.empty(0)
        self._traces: dict[tuple[Layout, int, int], Trace] = {}

    def carve(self, lay: Layout, T: int, B: int) -> Trace:
        """The Trace of ``_carved(lay, T, B)``'s uninitialized arrays, cut in plan order; other carves may reuse them."""
        key = (lay, T, B)
        if key not in self._traces:
            plan = _carved(lay, T, B)
            ends = list(itertools.accumulate(map(math.prod, plan.values())))
            if ends[-1] > len(self._buf):
                self._buf, self._traces = np.empty(ends[-1]), {}
            cuts = zip(plan.items(), [0, *ends], ends)
            self._traces[key] = Trace(lay, T, B, {name: self._buf[i:j].reshape(shape) for (name, shape), i, j in cuts})
        return self._traces[key]


def _carved(lay: Layout, T: int, B: int) -> dict[str, tuple[int, ...]]:
    """The memory plan: the name and shape of every array of a forward pass and then its backward pass.

    The forward's are the trace's: x, pre (memory cells only: the srn's
    is a view of h), h and, for memory cells, c, plus, unless o is fixed at
    1, one step's act(c_t) as ``sig_c``, which the backward refills from c.
    The backward's are every step's ``deltas``, one step's deltas ``d`` and
    gate and act' factors, ``dc`` for memory cells, and h_0 .. h_{T-1} as
    ``hs``. The forward's scratch lies in the room of ``deltas``: the
    (k*n_h, B) recurrent products and, where the Trace does not point the
    input projection at ``pre``, its (k*n_h, T*B) product.
    """
    n_h, gr, m = lay.n_h, lay.gate_rows, lay.gate_rows + lay.n_h

    def stacked(r: int) -> tuple[int, int, int]:  # see _stacked
        return (T, r, B) if 1 in (T, r, B) else (r, T, B)

    plan = {"x": (T, B, lay.n_in), **({"pre": (T, m, B)} if lay.memory else {}), "h": (T + 1, n_h, B)}
    if lay.memory:
        plan.update(c=(T + 1, n_h, B), **({} if "o" in lay.unit else {"sig_c": (n_h, B)}))
    plan.update(deltas=stacked(m), d=(m, B), dgates=(gr, B), dact=(n_h, B))
    if lay.memory:
        plan["dc"] = (n_h, B)
    plan["hs"] = stacked(n_h)
    return plan


class Step(NamedTuple):
    """One time step of a trace: candidate value and cell state, (n_h, B) each."""

    a_c: np.ndarray
    c: np.ndarray | None  # None for the srn, which keeps no cell state


class Trace:
    """The arrays of one forward pass and its backward pass, and every view of them the two loops take.

    ``Workspace.carve`` builds one per (layout, T, B) from the arrays of
    ``_carved``; ``forward_sequence`` fills it, records on it the ``cell``,
    ``head`` and ``activation`` it ran, and returns it, and
    ``backward_sequence`` reads it. It describes the last forward of its
    shape on its workspace, so it stays valid only until the next one.

    As a trace: ``x`` (T, B, n_in) copies the inputs. ``pre`` (T, m, B),
    in the block layout of the module docstring, holds each block's value:
    a gate's sigmoid, and the candidate's cell activation, whose signs are
    those of its pre-activation. ``h`` (T+1, n_h, B) holds the hidden
    states from the zero state at index 0; the srn's ``pre`` is ``h[1:]``.
    Memory cells also keep ``c`` (T+1, n_h, B), the cell states from zero,
    None for the srn. Iterating yields one Step per time step.

    As views: ``steps[t]`` holds step t's, in the order the forward
    unpacks them: ``pre``'s dense rows, point-wise rows as (g, n_h, B),
    biased point-wise rows, gate rows and candidate block; h_{t-1} and
    h_t; c_{t-1} and c_t (None for the srn); i_t, f_t and o_t (gate rows, a
    fixed value, or None); and step t of the deltas. The rest serve a
    whole call: the input projection's operand ``x_cols``, output ``proj``
    and its (T, k*n_h, B) view ``proj_steps``, ``pre``'s dense rows in the
    per-step form (module docstring); the shape U takes, ``u_blocks``, and
    the (k*n_h, B) scratch ``rec`` its products fill through
    ``rec_blocks``; one step's deltas ``d``, its ``d_gates`` and
    ``d_blocks``, its factors ``dgates`` and ``dact``, ``dc`` and ``sig_c``
    (None where not carved); the side-by-side ``deltas``; and ``hs``,
    h_0 .. h_{T-1} by step, which ``h_past`` views side by side.
    """

    cell: Params
    head: Params
    activation: Activation

    def __init__(self, lay: Layout, T: int, B: int, arrays: dict[str, np.ndarray]) -> None:
        n_h, gr, d0, b0 = lay.n_h, lay.gate_rows, lay.dense_from, lay.bias_from
        h, d = self.h, self.d = arrays["h"], arrays["d"]
        self.x, self.dgates, self.dact = (arrays[n] for n in ("x", "dgates", "dact"))
        self.c, self.sig_c, self.dc = map(arrays.get, ("c", "sig_c", "dc"))  # None where not carved
        pre = self.pre = arrays["pre"] if lay.memory else h[1:]  # the srn's only block is its candidate, h_t itself
        blocks = pre[:, d0:], pre[:, :d0].reshape(T, d0 // n_h, n_h, B), pre[:, b0:d0], pre[:, :gr], pre[:, gr:]
        c = (self.c, self.c[1:]) if lay.memory else ([None] * T,) * 2
        gates = [pre[:, lay.block[n]] if n in lay.block else [lay.fixed.get(n)] * T for n in GATE_NAMES]
        steps, self.deltas = _stacked(arrays["deltas"])
        self.steps = list(zip(*blocks, h, h[1:], *c, *gates, steps))
        self.x_rows = self.x.reshape(T * B, lay.n_in)
        k_rows, free = gr + n_h - d0, arrays["deltas"].reshape(-1)  # the deltas' room is dead in the forward
        if B > 1 and k_rows > 1:  # the per-step form (module docstring): every product is a gemm
            self.x_cols, self.proj = self.x.transpose(0, 2, 1), pre[:, d0:]
            self.proj_steps, self.u_blocks = self.proj, (k_rows // n_h, n_h, n_h)
        else:  # per-step products would be gemv calls, whose rounding differs
            self.x_cols, self.proj = self.x_rows.T, free[: k_rows * T * B].reshape(k_rows, T * B)
            self.proj_steps, self.u_blocks = self.proj.reshape(-1, T, B).transpose(1, 0, 2), (k_rows, n_h)
        self.rec = free[: k_rows * B].reshape(k_rows, B)
        self.rec_blocks = self.rec.reshape(*self.u_blocks[:-1], B)
        self.d_gates = [d[lay.block[n]] if n in lay.block else None for n in GATE_NAMES]
        self.d_blocks = d[:gr], d[gr:], d[d0:], d[:d0].reshape(d0 // n_h, n_h, B)
        self.hs, self.h_past = _stacked(arrays["hs"])

    def __iter__(self):
        return (Step(cand, c_t) for _, _, _, _, cand, _, _, _, c_t, *_ in self.steps)


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
    (B, n_out), and the Trace that the backward pass consumes: ``ws``'s
    own for this (layout, T, B), or a private one's.
    """
    x = np.asarray(seq, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[:, None, :]
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[1] == 0 or x.shape[2] != p.n_in:
        raise ValueError(
            f"inputs of shape {x.shape} are not a nonempty (T, [B,] n_in={p.n_in}) array"
        )
    T, B, _ = x.shape
    n_h, lay = p.n_h, p.layout
    if lay.variant is not spec.variant:
        raise ValueError(f"parameters of {lay.variant.value} given for {spec.variant.value}")
    trace = (Workspace() if ws is None else ws).carve(lay, T, B)
    trace.x[...] = x
    trace.cell, trace.head, trace.activation = p, head, spec.activation
    gr, d0, b0 = lay.gate_rows, lay.dense_from, lay.bias_from
    W, U, b = (p.stacks[k] for k in "WUb")
    trace.h[0] = 0.0
    if lay.memory:
        trace.c[0] = 0.0
    # the biases and u are repeated over the batch once, so that no ufunc broadcasts a length-1
    # axis (the biases' repeat at B = 1 would only copy them)
    b = np.repeat(b[:, None], B, axis=1) if B > 1 else b[:, None]
    np.matmul(W, trace.x_cols, out=trace.proj)
    np.add(trace.proj_steps, b[d0 - b0 :], out=trace.pre[:, d0:])

    i_unit, o_unit = "i" in lay.unit, "o" in lay.unit
    act, sig_c = ACTIVATIONS[spec.activation][0], trace.sig_c
    if d0:  # point-wise gates: u_g * h_{t-1}, plus a bias on rows b0 .. d0
        u, b_pw = np.repeat(p.stacks["u"].reshape(-1, n_h, 1), B, axis=2), b[: d0 - b0]
    U, rec, rec_blocks = U.reshape(trace.u_blocks), trace.rec, trace.rec_blocks
    for dense, pw, biased, gates, cand, h_prev, h_t, c_prev, c_t, i, f, o, _ in trace.steps:
        np.matmul(U, h_prev, out=rec_blocks)
        dense += rec
        if d0:
            np.multiply(u, h_prev, out=pw)
            if b0 < d0:
                biased += b_pw
        if gr:
            sigmoid(gates, out=gates)
        act(cand, out=cand)
        if not lay.memory:
            continue
        np.multiply(f, c_prev, out=c_t)
        c_t += cand if i_unit else i * cand
        if o_unit:
            act(c_t, out=h_t)
        else:
            np.multiply(o, act(c_t, out=sig_c), out=h_t)

    logits = (head["W_hy"] @ trace.h[T]).T + head["b_y"]
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
    T, B, _ = trace.x.shape
    p, head = trace.cell, trace.head
    (act, act_d), sig_d = ACTIVATIONS[trace.activation], ACTIVATIONS[Activation.SIGMOID][1]
    dl = np.atleast_2d(dlogits)
    if dl.shape != (B, head.n_out):
        raise ValueError(f"dlogits shape {np.shape(dlogits)} does not match {B} rows of the head")

    lay, n_h = p.layout, p.n_h
    gr, d0 = lay.gate_rows, lay.dense_from
    i_unit, o_unit = "i" in lay.unit, "o" in lay.unit
    Ut = p.stacks["U"].T
    dh = head["W_hy"].T @ dl.T
    # Each step's deltas go into one (m, B) slab ``d``, built from its gate
    # and act' factors, and are copied into that step of ``deltas``, which
    # lies side by side as (m, T*B) against the inputs and hidden states.
    d, dgates, dact, sig_c, dc = trace.d, trace.dgates, trace.dact, trace.sig_c, trace.dc
    d_i, d_f, d_o = trace.d_gates
    d_sig, d_cand, d_dense, d_pw = trace.d_blocks
    if lay.memory:
        dc[...] = 0.0
    if d0:
        u = p.stacks["u"].reshape(-1, n_h)
    for t in range(T - 1, -1, -1):
        _, _, _, gates, cand, _, h_t, c_prev, c_t, i, f, o, step = trace.steps[t]
        if lay.memory:  # act(c_t): h_t itself when o is fixed at 1, else recomputed from the kept c_t
            act_c = h_t if o_unit else act(c_t, out=sig_c)
            if d_o is not None:  # h_t = o * act(c_t)
                np.multiply(dh, act_c, out=d_o)
            act_d(act_c, out=dact)  # dc_t picks up dh_t * o_t * act'(c_t)
            if not o_unit:
                dact *= o
            dc += dh * dact
        else:
            dc = dh
        if d_f is not None:  # c_t = f * c_prev + i * cand
            np.multiply(dc, c_prev, out=d_f)
        if d_i is not None:
            np.multiply(dc, cand, out=d_i)
        if gr:
            d_sig *= sig_d(gates, out=dgates)
        # the candidate delta is dc_t * i_t * act'(a_c), and dc_t is dh_t for the srn
        act_d(cand, out=dact)
        if lay.memory and not i_unit:
            dact *= i
        np.multiply(dc, dact, out=d_cand)
        step[...] = d
        if t == 0:
            break
        dh = Ut @ d_dense
        if d0:
            dh += np.einsum("gnb,gn->nb", d_pw, u)
        if lay.memory:
            dc *= f

    deltas, h_past = trace.deltas, trace.h_past
    trace.hs[...] = trace.h[:T]
    grads = Params(lay)
    g = grads.stacks
    np.matmul(deltas[d0:], trace.x_rows, out=g["W"])
    np.matmul(deltas[d0:], h_past.T, out=g["U"])
    deltas[lay.bias_from :].sum(axis=1, out=g["b"])
    if d0:
        np.einsum("gnk,nk->gn", deltas[:d0].reshape(-1, n_h, T * B), h_past, out=g["u"].reshape(-1, n_h))
    np.matmul(dl.T, trace.h[T].T, out=grads["W_hy"])
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
