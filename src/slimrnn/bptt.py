"""Batch-major forward pass, softmax cross-entropy, and backpropagation through time.

One engine runs a whole batch at once, time step by time step, after the
fused-RNN recipe of Appleyard, Kocisky & Blunsom (2016, arXiv:1604.01946).
Pre-activations live in one (T, m, B) array, m = (g + 1) * n_h: an n_h-row
block per learned gate (point-wise gates first, then dense ones, each in
i, f, o order), then the candidate. The batch is the innermost axis, so
each gate block of a step is one contiguous (n_h, B) slab for the
elementwise work. The k dense blocks sit together at the bottom, and the
parameters hold them as one stack whose rows are [U | W | b]
(``cells.Layout``), so

* each step of the forward runs one (n_h, n_h + n_in + 1) product per
  dense block with a contiguous operand [h_{t-1}; x_t; 1], written
  straight into ``pre``'s dense rows: recurrent product, input projection
  and bias in one GEMM, the one form at every batch size. Two operands
  take turns: a step forms h_t in the other and copies x_{t+1} in;
* point-wise gates add u_g * h_{t-1} per step, and fixed gates are
  broadcast constants that produce no parameter gradients;
* every step writes in place into the arrays of a Trace: each block's
  value (a gate's sigmoid, the candidate's activation) overwrites its
  pre-activation, and each derivative factor is formed from a value.

The trace keeps the operands side by side in one (n_h + n_in + 1, T+1, B)
array ``z``, whose column t is [h_t; x_{t+1}; 1]: its first T columns are,
as a view, the operand of the backward's one weight-gradient product.

One memory plan, ``_carved``, names every array of a forward pass and of
its backward pass with its shape, in carve order. ``Workspace.carve`` cuts
them all from one flat buffer, which only grows, so a training run
allocates its pages once, at its first batch, and builds one Trace per
(layout, T, B): the arrays and every view the two loops take of them, each
step's included, so that a call indexes nothing per step. The forward
fills that Trace and returns it; the backward reads it, never a
workspace. The backward keeps only the live trace plus one step's scratch:
every derivative factor is formed per step, and act(c_t), which h_t = o_t *
act(c_t) reads, is recomputed from the kept c_t one step at a time
instead of being kept for every step (Chen et al. 2016, "Training Deep
Nets with Sublinear Memory Cost", at the scale of one step). The returned
logits and gradients are fresh arrays the caller owns.

Classification reads the final hidden state only: logits = W_hy h_T + b_y.
The backward pass is hand-derived and reads all it needs from the trace
(the pullback of reverse-mode AD). It walks the trace in reverse carrying
dL/dh_t and dL/dc_t, builds each step's pre-activation deltas in one
(m, B) slab, carries them back with the sum of one U_g^T product per
dense block (U_g^T a view of the stack) and copies them into an (m, T, B)
array, side by side as (m, T*B). One product of its dense rows with ``z``
then gives every dense W, U and bias gradient, straight into the dense
stack of one gradient vector, a ``cells.Params`` of the parameters' layout.

All seven cells run the same time loop in each direction. The srn is the
cell without a cell state: its only block is the candidate, whose value
is h_t itself (its ``pre`` is a view of h_1 .. h_T in ``z``), the loops
skip the cell-state lines, and its candidate delta takes dL/dh_t directly.
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
            if ends[-1] > len(self._buf):  # start it on a 64-byte cache line: elsewhere the engine ran 2-13% slower
                buf = np.empty(ends[-1] + 7)
                start = -buf.ctypes.data % 64 // 8
                self._buf, self._traces = buf[start : start + ends[-1]], {}
            cuts = zip(plan.items(), [0, *ends], ends)
            self._traces[key] = Trace(lay, T, B, {name: self._buf[i:j].reshape(shape) for (name, shape), i, j in cuts})
        return self._traces[key]


def _carved(lay: Layout, T: int, B: int) -> dict[str, tuple[int, ...]]:
    """The memory plan: the name and shape of every array of a forward pass and then its backward pass.

    The forward's are the trace's: the side-by-side operands ``z``, the
    two contiguous operands ``zt`` the steps take in turns, pre (memory
    cells only: the srn's is a view of h in z) and, for memory cells, c,
    plus, unless o is fixed at 1, one step's act(c_t) as ``sig_c``, which
    the backward refills from c.
    The backward's are every step's ``deltas``, one step's deltas ``d``,
    gate and act' factors, the per-dense-block products ``dh`` whose first
    block is dL/dh, and ``dc`` for memory cells.
    """
    n_h, gr, m, rows = lay.n_h, lay.gate_rows, lay.gate_rows + lay.n_h, lay.n_h + lay.n_in + 1
    plan = {"z": (rows, T + 1, B), "zt": (2, rows, B), **({"pre": (T, m, B)} if lay.memory else {})}
    if lay.memory:
        plan.update(c=(T + 1, n_h, B), **({} if "o" in lay.unit else {"sig_c": (n_h, B)}))
    plan.update(deltas=(m, T, B), d=(m, B), dgates=(gr, B), dact=(n_h, B), dh=(len(lay.dense), n_h, B))
    if lay.memory:
        plan["dc"] = (n_h, B)
    return plan


class Step(NamedTuple):
    """One time step of a trace: candidate value and cell state, (n_h, B) each."""

    a_c: np.ndarray
    c: np.ndarray | None  # None for the srn, which keeps no cell state


class Trace:
    """The arrays of one forward pass and its backward pass, and every view of them the two loops take.

    ``Workspace.carve`` builds one per (layout, T, B) from the arrays of
    ``_carved``; ``forward_sequence`` fills it, records on it the ``cell``,
    ``head`` and ``activation`` it ran (a tuple, one per column block, when
    it ran several), and returns it, and ``backward_sequence`` reads it. It
    describes the last forward of its shape on its workspace, so it stays
    valid only until the next one.

    As a trace: ``z`` (n_h + n_in + 1, T+1, B) holds every step's operand
    (module docstring), and as views of it ``h`` (T+1, n_h, B), the hidden
    states from the zero state at index 0, ``x`` (T, B, n_in), the copied
    inputs, and ``z_past``, the first T columns side by side. ``pre`` (T,
    m, B), in the block layout of the module docstring, holds each block's
    value: a gate's sigmoid, and the candidate's cell activation, whose
    signs are those of its pre-activation; the srn's ``pre`` is ``h[1:]``.
    Memory cells also keep ``c`` (T+1, n_h, B), the cell states from zero,
    None for the srn. Iterating yields one Step per time step.

    As views: ``forward_steps[t]`` holds step t's, in the order the
    forward unpacks them: its operand and that operand's h_{t-1}; ``pre``'s
    whole (m, B) slab (the srn's is the next operand's h rows), its
    dense rows as (k, n_h, B), point-wise rows as (g, n_h, B), biased
    point-wise rows, gate rows and candidate block (the srn's dense rows and
    candidate are the next operand's h rows); the next operand's h rows, h_t
    in ``z``, the next operand's x rows, x_{t+1} in ``z``; c_{t-1} and c_t
    (None for the srn); i_t, f_t and o_t (gate rows, a fixed value, or
    None). ``steps[t]`` holds what the backward reads: gate rows, candidate,
    h_t, c_{t-1}, c_t, i_t, f_t, o_t as kept, and step t of the deltas. The
    rest serve a whole call: the operands ``zt``; one step's deltas ``d``,
    its ``d_gates`` and ``d_blocks``, its factors ``dgates`` and ``dact``,
    ``dh``, ``dc`` and ``sig_c`` (None where not carved); and ``deltas``.
    """

    cell: Params
    head: Params
    activation: Activation | tuple[Activation, ...]

    def __init__(self, lay: Layout, T: int, B: int, arrays: dict[str, np.ndarray]) -> None:
        n_h, gr, d0, b0 = lay.n_h, lay.gate_rows, lay.dense_from, lay.bias_from
        z, d = self.z, self.d = arrays["z"], arrays["d"]
        self.zt, self.dgates, self.dact, self.dh = (arrays[n] for n in ("zt", "dgates", "dact", "dh"))
        self.c, self.sig_c, self.dc = map(arrays.get, ("c", "sig_c", "dc"))  # None where not carved
        h = self.h = z[:n_h].transpose(1, 0, 2)
        self.x = z[n_h : n_h + lay.n_in, :T].transpose(1, 2, 0)
        self.z_past = z[:, :T].reshape(len(z), T * B)
        pre = self.pre = arrays["pre"] if lay.memory else h[1:]  # the srn's only block is its candidate, h_t itself
        c = (self.c, self.c[1:]) if lay.memory else ([None] * T,) * 2
        gates = [pre[:, lay.block[n]] if n in lay.block else [lay.fixed.get(n)] * T for n in GATE_NAMES]
        deltas = arrays["deltas"]
        self.deltas = deltas.reshape(len(deltas), T * B)
        ops = [self.zt[t % 2] for t in range(T + 1)]  # step t reads ops[t] and leaves the next in ops[t + 1]
        h_ops, x_ops = [op[:n_h] for op in ops], [op[n_h:-1] for op in ops]
        dense, cand = pre[:, d0:].reshape(T, -1, n_h, B), pre[:, gr:]
        if not lay.memory:  # the srn's candidate is h_t: formed in the next operand, then kept in z
            dense, cand = [h_op.reshape(1, n_h, B) for h_op in h_ops[1:]], h_ops[1:]
        x_next = z[n_h:-1, 1:].transpose(1, 0, 2)  # the last step's is never read
        pw = pre[:, :d0].reshape(T, d0 // n_h, n_h, B), pre[:, b0:d0], pre[:, :gr]
        slabs = pre if lay.memory else h_ops[1:]  # each step's whole (m, B) pre-activation slab
        self.forward_steps = list(zip(ops, h_ops, slabs, dense, *pw, cand, h_ops[1:], h[1:], x_ops[1:], x_next, *c, *gates))
        self.steps = list(zip(pre[:, :gr], pre[:, gr:], h[1:], *c, *gates, deltas.transpose(1, 0, 2)))
        self.d_gates = [d[lay.block[n]] if n in lay.block else None for n in GATE_NAMES]
        self.d_blocks = d[:gr], d[gr:], d[d0:].reshape(-1, n_h, B), d[:d0].reshape(d0 // n_h, n_h, B)

    def __iter__(self):
        return (Step(cand, c_t) for _, cand, _, _, c_t, *_ in self.steps)


def forward_sequence(
    spec: VariantSpec, p: Params, head: Params, seq: np.ndarray, ws: Workspace | None = None, *,
    nudge: tuple | None = None, activations: tuple[Activation, ...] | None = None,
) -> tuple[np.ndarray, Trace]:
    """Run the cell from a zero state over one sequence or a time-major batch.

    The cell's arrays are read from ``p`` and the head's from ``head``
    (``init_params`` returns one Params for both). ``seq`` is one sequence
    (T, n_in), or a list of T input vectors, or a batch (T, B, n_in).
    Returns the head logits of the final hidden state, (n_out,) or
    (B, n_out), and the Trace that the backward pass consumes: ``ws``'s
    own for this (layout, T, B), or a private one's.

    ``nudge``, when given, is ``(at, by, step)``: flat indices into a
    step's (m, B) pre-activation slab, flat indices into its (n_h + n_in +
    1, B) operand, and one step per entry, each entry in a column of its
    own. Every step, after the dense product and the point-wise terms and
    before any nonlinearity, adds ``step`` times operand entry ``by`` to
    slab entry ``at``: column b then runs the cell with the one parameter
    that multiplies that operand row into that pre-activation row moved
    by its step (``gradcheck.sweep_losses``).

    ``activations``, when given, splits the B columns into equal blocks,
    one per entry: block j runs the cell with ``activations[j]`` in place
    of ``spec``'s, and the trace records the tuple. Such a trace has no
    backward pass.
    """
    x = np.asarray(seq, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[:, None, :]
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[1] == 0 or x.shape[2] != p.layout.n_in:
        raise ValueError(
            f"inputs of shape {x.shape} are not a nonempty (T, [B,] n_in={p.layout.n_in}) array"
        )
    T, B, _ = x.shape
    n_h, lay = p.layout.n_h, p.layout
    if lay.variant is not spec.variant:
        raise ValueError(f"parameters of {lay.variant.value} given for {spec.variant.value}")
    if activations is not None and B % len(activations):
        raise ValueError(f"{B} columns do not split into {len(activations)} equal blocks, one per activation")
    trace = (Workspace() if ws is None else ws).carve(lay, T, B)
    trace.x[...] = x
    trace.cell, trace.head, trace.activation = p, head, spec.activation if activations is None else activations
    gr, d0, b0 = lay.gate_rows, lay.dense_from, lay.bias_from
    z, zt = trace.z, trace.zt
    z[:n_h, 0] = 0.0  # h_0
    z[-1] = 1.0  # the bias column's operand
    zt[0], zt[1, -1] = z[:, 0], 1.0  # the first step's operand, and the bias row of the other
    if lay.memory:
        trace.c[0] = 0.0
    stack = p.stacks["dense"].reshape(-1, n_h, len(z))

    i_unit, o_unit = "i" in lay.unit, "o" in lay.unit
    act, sig_c = ACTIVATIONS[spec.activation][0], trace.sig_c
    if activations is not None:
        act = _blockwise(activations, B)
    if nudge is not None:
        at, by, step = nudge
    if d0:  # point-wise gates: u_g * h_{t-1}, plus a bias on rows b0 .. d0, each repeated over the batch
        u = np.repeat(p.stacks["u"].reshape(-1, n_h, 1), B, axis=2)  # once, so that no ufunc broadcasts
        b_pw = np.repeat(p.stacks["b"][:, None], B, axis=1) if b0 < d0 else None
    for op, h_prev, slab, dense, pw, biased, gates, cand, h_op, h_t, x_op, x_next, c_prev, c_t, i, f, o in trace.forward_steps:
        np.matmul(stack, op, out=dense)
        if d0:
            np.multiply(u, h_prev, out=pw)
            if b0 < d0:
                biased += b_pw
        if nudge is not None:
            np.put(slab, at, np.take(slab, at) + step * np.take(op, by))
        if gr:
            sigmoid(gates, out=gates)
        act(cand, out=cand)
        if lay.memory:  # h_t goes into the next step's operand
            np.multiply(f, c_prev, out=c_t)
            c_t += cand if i_unit else i * cand
            if o_unit:
                act(c_t, out=h_op)
            else:
                np.multiply(o, act(c_t, out=sig_c), out=h_op)
        np.copyto(h_t, h_op)  # and the trace keeps it in z
        np.copyto(x_op, x_next)

    logits = (head["W_hy"] @ trace.h[T]).T + head["b_y"]
    return (logits[0] if single else logits), trace


def _blockwise(activations: tuple[Activation, ...], B: int):
    """An ``act(v, out)`` over (n, B) arrays that applies ``activations[j]`` to the j-th of their equal column blocks."""
    w = B // len(activations)
    blocks = [(ACTIVATIONS[a][0], slice(j * w, (j + 1) * w)) for j, a in enumerate(activations)]

    def act(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        for fn, cols in blocks:
            fn(v[:, cols], out=out[:, cols])
        return out

    return act


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
    for them, so the trace may be walked back any number of times. A trace
    whose forward ran one activation per column block raises ValueError.
    """
    if isinstance(trace.activation, tuple):
        raise ValueError("the trace's forward ran one activation per column block; only a one-activation trace has a backward pass")
    T, B, _ = trace.x.shape
    p, head = trace.cell, trace.head
    (act, act_d), sig_d = ACTIVATIONS[trace.activation], ACTIVATIONS[Activation.SIGMOID][1]
    dl = np.atleast_2d(dlogits)
    if dl.shape != (B, head.layout.n_out):
        raise ValueError(f"dlogits shape {np.shape(dlogits)} does not match {B} rows of the head")

    lay, n_h = p.layout, p.layout.n_h
    gr, d0, b0 = lay.gate_rows, lay.dense_from, lay.bias_from
    i_unit, o_unit = "i" in lay.unit, "o" in lay.unit
    Ut = p.stacks["dense"].reshape(-1, n_h, len(trace.z))[:, :, :n_h].transpose(0, 2, 1)  # each block's U^T
    # Each step's deltas go into one (m, B) slab ``d``, built from its gate
    # and act' factors, and are copied into that step of ``deltas``, which
    # lies side by side as (m, T*B) against the operands in ``z``.
    d, dgates, dact, sig_c, dc = trace.d, trace.dgates, trace.dact, trace.sig_c, trace.dc
    d_i, d_f, d_o = trace.d_gates
    d_sig, d_cand, d_dense, d_pw = trace.d_blocks
    dh_blocks, dh = trace.dh, trace.dh[0]
    np.matmul(head["W_hy"].T, dl.T, out=dh)
    if lay.memory:
        dc[...] = 0.0
    if d0:
        u = p.stacks["u"].reshape(-1, n_h)
    for t in range(T - 1, -1, -1):
        gates, cand, h_t, c_prev, c_t, i, f, o, step = trace.steps[t]
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
        np.matmul(Ut, d_dense, out=dh_blocks)  # dh_{t-1} is the sum of the dense blocks' U^T products
        for block in dh_blocks[1:]:
            dh += block
        if d0:
            dh += np.einsum("gnb,gn->nb", d_pw, u)
        if lay.memory:
            dc *= f

    deltas, z_past = trace.deltas, trace.z_past
    grads = Params(lay)
    g = grads.stacks
    np.matmul(deltas[d0:], z_past.T, out=g["dense"])  # every dense U, W and bias gradient
    if b0 < d0:
        deltas[b0:d0].sum(axis=1, out=g["b"])
    if d0:
        np.einsum("gnk,nk->gn", deltas[:d0].reshape(-1, n_h, T * B), z_past[:n_h], out=g["u"].reshape(-1, n_h))
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
