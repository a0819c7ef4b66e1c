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
* point-wise gates add u_g * h_{t-1} per step, and constant gates are
  broadcast constants that produce no parameter gradients;
* every step writes in place into arrays allocated once per call, which
  together form the Trace the backward pass reads.

Classification reads the final hidden state only: logits = W_hy h_T + b_y.
The backward pass is hand-derived per variant. It walks the trace in
reverse carrying dL/dh_t and dL/dc_t, writes each step's pre-activation
deltas with one (n_h, k*n_h) @ (k*n_h, B) product per step, and then forms
every weight gradient with one product over the stacked T*B deltas.
Gradients are plain dicts keyed by the parameter field names of the
variant plus the head.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cells import (
    GATE_NAMES,
    CellParams,
    GateSpec,
    GateStyle,
    OutputHead,
    VariantSpec,
    activation_derivative,
    apply_activation,
    param_field_names_from_params,
    sigmoid,
)

Gradients = dict[str, np.ndarray]


class Step(NamedTuple):
    """One time step of a trace: candidate pre-activation and cell state, (n_h, B) each."""

    a_c: np.ndarray
    c: np.ndarray | None  # None for the srn, which keeps no cell state


@dataclass
class Trace:
    """Forward intermediates of one batch, kept for the backward pass.

    ``x`` (T, B, n_in) holds the inputs. ``pre`` and ``act`` (T, m, B) hold
    the pre-activations in the block layout of the module docstring and
    their values: the sigmoid for gate blocks, the cell activation for the
    candidate block. ``h`` (T+1, n_h, B) holds the hidden states from the
    zero state at index 0. Memory cells also keep ``c`` (T+1, n_h, B), the
    cell states from zero, and ``sig_c`` (T, n_h, B) = act(c_t), which is a
    view of ``h[1:]`` when the output gate is fixed at 1; both are None for
    the srn. Iterating yields one Step per time step.
    """

    x: np.ndarray
    pre: np.ndarray
    act: np.ndarray
    h: np.ndarray
    c: np.ndarray | None
    sig_c: np.ndarray | None

    def __len__(self) -> int:
        return len(self.pre)

    def __getitem__(self, t: int) -> Step:
        t = range(len(self))[t]
        n_h = self.h.shape[1]
        return Step(self.pre[t, -n_h:], None if self.c is None else self.c[t + 1])

    def __iter__(self):
        return (self[t] for t in range(len(self)))


class _Layout:
    """Block layout of one variant's pre-activations, and its gate values over a trace.

    Built once per (spec, n_h) by ``_layout``.
    """

    def __init__(self, spec: VariantSpec, n_h: int) -> None:
        learned = [(n, g) for n, g in zip(GATE_NAMES, spec.gates or ()) if g.style is not GateStyle.CONSTANT]
        self.gates: list[tuple[str, GateSpec]] = sorted(learned, key=lambda ng: ng[1].style is GateStyle.DENSE)
        self.pointwise = [n for n, g in self.gates if g.style is GateStyle.POINTWISE]
        self.dense = [n for n, g in self.gates if g.style is GateStyle.DENSE] + ["c"]
        self.n_h = n_h
        self.gate_rows = len(self.gates) * n_h  # the candidate block starts here
        self.dense_from = len(self.pointwise) * n_h
        self.memory = spec.gates is not None
        self.block = {n: slice(j * n_h, (j + 1) * n_h) for j, (n, _) in enumerate(self.gates)}
        # Gates fixed at exactly 1 need no multiply: x * 1.0 == x.
        self.unit = {n for n, g in zip(GATE_NAMES, spec.gates or ()) if g.const == 1.0}

    def stacked(self, p: CellParams, kind: str) -> np.ndarray:
        """W, U or b of the dense blocks stacked in block order: (k*n_h, ...)."""
        arrays = [getattr(p, f"{kind}_{n}") for n in self.dense]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def pointwise_stack(self, p: CellParams, kind: str) -> np.ndarray | None:
        """u or b of the point-wise gates as a (pw, n_h, 1) stack; None if no gate has one."""
        arrays = [getattr(p, f"{kind}_{n}") for n in self.pointwise]
        if all(a is None for a in arrays):
            return None
        return np.stack([np.zeros(self.n_h) if a is None else a for a in arrays])[:, :, None]

    def gate_values(self, spec: VariantSpec, act: np.ndarray) -> list[np.ndarray | float]:
        """i, f, o over the trace: (T, n_h, B) views of ``act``, or the constant as a float."""
        return [
            gate.const if gate.style is GateStyle.CONSTANT else act[:, self.block[name]]
            for name, gate in zip(GATE_NAMES, spec.gates)
        ]


def _per_step(gate, T: int):
    """A gate's value at each step: rows of its trace view, or its constant repeated."""
    return [gate] * T if isinstance(gate, float) else gate


@lru_cache(maxsize=64)
def _layout(spec: VariantSpec, n_h: int) -> _Layout:
    return _Layout(spec, n_h)


def forward_sequence(
    spec: VariantSpec, p: CellParams, head: OutputHead, seq: np.ndarray
) -> tuple[np.ndarray, Trace]:
    """Run the cell from a zero state over one sequence or a time-major batch.

    ``seq`` is one sequence (T, n_in), or a list of T input vectors, or a
    batch (T, B, n_in). Returns the head logits of the final hidden state,
    (n_out,) or (B, n_out), and the Trace that the backward pass consumes.
    """
    x = np.ascontiguousarray(seq, dtype=np.float64)
    single = x.ndim == 2
    if single:
        x = x[:, None, :]
    if x.ndim != 3 or x.shape[0] == 0 or x.shape[1] == 0 or x.shape[2] != p.n_in:
        raise ValueError(
            f"inputs of shape {x.shape} are not a nonempty (T, [B,] n_in={p.n_in}) array"
        )
    T, B, n_in = x.shape
    n_h = p.n_h
    lay = _layout(spec, n_h)
    gr, d0 = lay.gate_rows, lay.dense_from

    pre = np.empty((T, gr + n_h, B))
    proj = lay.stacked(p, "W") @ x.reshape(T * B, n_in).T
    np.add(proj.reshape(-1, T, B).transpose(1, 0, 2), lay.stacked(p, "b")[:, None], out=pre[:, d0:])
    U = lay.stacked(p, "U")

    h = np.zeros((T + 1, n_h, B))
    if not lay.memory:
        # The srn's only block is the candidate, whose value is h_t itself.
        act_ = h[1:]
        c = sig_c = None
        for t in range(T):
            pre[t] += U @ h[t]
            apply_activation(spec.activation, pre[t], out=h[t + 1])
    else:
        act_ = np.empty_like(pre)
        c = np.zeros((T + 1, n_h, B))
        o_unit = "o" in lay.unit
        sig_c = h[1:] if o_unit else np.empty((T, n_h, B))
        i_unit = "i" in lay.unit
        i, f, o = (_per_step(g, T) for g in lay.gate_values(spec, act_))
        cand = act_[:, gr:]
        u = lay.pointwise_stack(p, "u")
        if u is not None:
            b_pw = lay.pointwise_stack(p, "b")
            pre_pw = pre[:, :d0].reshape(T, len(u), n_h, B)
        for t in range(T):
            pre[t, d0:] += U @ h[t]
            if u is not None:
                np.multiply(u, h[t], out=pre_pw[t])
                if b_pw is not None:
                    pre_pw[t] += b_pw
            if gr:
                sigmoid(pre[t, :gr], out=act_[t, :gr])
            apply_activation(spec.activation, pre[t, gr:], out=cand[t])
            np.multiply(f[t], c[t], out=c[t + 1])
            c[t + 1] += cand[t] if i_unit else i[t] * cand[t]
            apply_activation(spec.activation, c[t + 1], out=sig_c[t])
            if not o_unit:
                np.multiply(o[t], sig_c[t], out=h[t + 1])

    logits = (head.W_hy @ h[T]).T + head.b_y
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
    spec: VariantSpec,
    p: CellParams,
    head: OutputHead,
    trace: Trace,
    dlogits: np.ndarray,
) -> Gradients:
    """Exact loss gradients for every trainable array, given a forward trace.

    ``dlogits`` is the loss gradient with respect to the logits, (n_out,)
    for a single sequence or (B, n_out) for a batch; the gradients are
    summed over the batch rows.
    """
    if len(trace) == 0:
        raise ValueError("empty trace (was forward_sequence run?)")
    T, B, n_in = trace.x.shape
    n_h = p.n_h
    if n_in != p.n_in or trace.h.shape[1] != n_h:
        raise ValueError("trace does not match the given parameters")
    dl = np.atleast_2d(dlogits)
    if dl.shape != (B, head.n_out):
        raise ValueError(f"dlogits shape {np.shape(dlogits)} does not match {B} rows of the head")

    lay = _layout(spec, n_h)
    gr, d0 = lay.gate_rows, lay.dense_from
    pre, act_, h, c, sig_c = trace.pre, trace.act, trace.h, trace.c, trace.sig_c
    act = spec.activation
    Ut = lay.stacked(p, "U").T
    dh = head.W_hy.T @ dl.T
    dpre = np.empty_like(pre)

    if not lay.memory:  # srn: h_t = act(W_c x + U_c h_prev + b_c)
        dcand = activation_derivative(act, pre, h[1:])
        for t in range(T - 1, -1, -1):
            np.multiply(dh, dcand[t], out=dpre[t])
            dh = Ut @ dpre[t]
    else:
        i, f, o = lay.gate_values(spec, act_)
        f_t = _per_step(f, T)
        cand = act_[:, gr:]
        gates = act_[:, :gr]
        dgates = gates * (1.0 - gates)
        # dc_t picks up dh_t * o_t * act'(c_t); the candidate delta is dc_t * i_t * act'(a_c)
        dc_from_dh = o * activation_derivative(act, c[1:], sig_c)
        dcand = i * activation_derivative(act, pre[:, gr:], cand)
        sl = lay.block
        u = lay.pointwise_stack(p, "u")
        if u is not None:
            u = u[:, :, 0]
            dpre_pw = dpre[:, :d0].reshape(T, len(u), n_h, B)
        dc = np.zeros((n_h, B))
        for t in range(T - 1, -1, -1):
            d = dpre[t]
            if "o" in sl:  # h_t = o * act(c_t)
                np.multiply(dh, sig_c[t], out=d[sl["o"]])
            dc += dh * dc_from_dh[t]
            if "f" in sl:  # c_t = f * c_prev + i * cand
                np.multiply(dc, c[t], out=d[sl["f"]])
            if "i" in sl:
                np.multiply(dc, cand[t], out=d[sl["i"]])
            if gr:
                d[:gr] *= dgates[t]
            np.multiply(dc, dcand[t], out=d[gr:])
            dh = Ut @ d[d0:]
            if u is not None:
                dh += np.einsum("gnb,gn->nb", dpre_pw[t], u)
            dc *= f_t[t]

    # Every step's deltas side by side, (m, T*B), against inputs and hidden
    # states stacked in the same (t, b) order.
    deltas = dpre.transpose(1, 0, 2).reshape(len(pre[0]), T * B)
    h_prev = h[:T].transpose(1, 0, 2).reshape(n_h, T * B)
    dW = deltas[d0:] @ trace.x.reshape(T * B, n_in)
    dU = deltas[d0:] @ h_prev.T
    db = deltas.sum(axis=1)
    grads: Gradients = {}
    for j, name in enumerate(lay.dense):
        grads[f"W_{name}"] = dW[j * n_h : (j + 1) * n_h]
        grads[f"U_{name}"] = dU[j * n_h : (j + 1) * n_h]
    if lay.pointwise:
        du = np.einsum("gnk,nk->gn", deltas[:d0].reshape(len(lay.pointwise), n_h, T * B), h_prev)
        for j, name in enumerate(lay.pointwise):
            grads[f"u_{name}"] = du[j]
    for j, name in enumerate([n for n, _ in lay.gates] + ["c"]):
        grads[f"b_{name}"] = db[j * n_h : (j + 1) * n_h]

    # Canonical key order: cell fields first, then the head.
    ordered = {name: grads[name] for name in param_field_names_from_params(p)}
    ordered["W_hy"] = dl.T @ h[T].T
    ordered["b_y"] = dl.sum(axis=0)
    return ordered


def batch_loss_and_grads(
    spec: VariantSpec, p: CellParams, head: OutputHead, batch
) -> tuple[float, Gradients, int]:
    """Mean loss and mean gradients over a batch, plus the correct count.

    The whole batch runs through one forward and one backward pass; the
    mean is taken by scaling the logit gradients by 1/B before the
    backward pass, so every weight gradient is one product over the
    stacked T*B deltas. Results are bitwise reproducible for a given seed
    and batch size; they match a per-example reduction to rounding only.
    Argmax ties resolve toward the lowest class index.
    """
    size = len(batch.labels)
    if size == 0:
        raise ValueError("empty batch")
    logits, trace = forward_sequence(spec, p, head, np.swapaxes(batch.inputs, 0, 1))
    labels = np.asarray(batch.labels)
    losses, dlogits = softmax_xent(logits, labels)
    grads = backward_sequence(spec, p, head, trace, dlogits / size)
    correct = int(np.count_nonzero(np.argmax(logits, axis=1) == labels))
    return float(losses.sum() / size), grads, correct
