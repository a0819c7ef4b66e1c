"""Recurrent cell variants: the gate table, the parameter layout and initialization.

Seven cells share one interface (their forward and backward passes are in
``bptt``). ``srn`` is the ungated baseline

    h_t = act(W_c x_t + U_c h_{t-1} + b_c)

and the remaining six are memory cells of the form

    c_t = f_t * c_{t-1} + i_t * cand_t,    cand_t = act(W_c x_t + U_c h_{t-1} + b_c)
    h_t = o_t * act(c_t)

differing only in how the input/forget/output gates i, f, o are produced.
``GATES`` is the whole description of a variant: None for the srn, else an
(i, f, o) triple whose entries are

    "dense"   sigmoid(W_g x_t + U_g h_{t-1} + b_g)
    "pw"      sigmoid(u_g * h_{t-1})            (point-wise)
    "pw+b"    sigmoid(u_g * h_{t-1} + b_g)
    a float   the gate's fixed value

Gates always use the logistic sigmoid; ``act`` is the configurable cell
activation and is applied both to the candidate and to the cell state on
output. Fixed forget values are strictly below one, which keeps the
cell bounded-input bounded-output (the state of an undriven cell decays
geometrically).

All trainable scalars of a model, cell and output head, live in one flat
float64 vector laid out from the gate table (``Layout``, the table's only
reader, whose ``size`` is the parameter count); ``Params`` gives named
views into it, and gradients and optimizer state share its layout.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .rng import TAG_INIT, stream


class Activation(str, Enum):
    TANH = "tanh"
    SIGMOID = "sigmoid"
    RELU = "relu"


class Variant(str, Enum):
    SRN = "srn"
    LSTM = "lstm"
    LSTM4 = "lstm4"
    LSTM5 = "lstm5"
    LSTM4A = "lstm4a"
    LSTM5A = "lstm5a"
    LSTM6 = "lstm6"


# The gate table of the module docstring: (i, f, o) per variant, None for the srn.
GATES: dict[Variant, tuple[str | float, str | float, str | float] | None] = {
    Variant.SRN: None,
    Variant.LSTM: ("dense", "dense", "dense"),
    Variant.LSTM4: ("pw", "pw", "pw"),
    Variant.LSTM5: ("pw+b", "pw+b", "pw+b"),
    Variant.LSTM4A: ("pw", 0.96, 1.0),
    Variant.LSTM5A: ("pw+b", 0.96, 1.0),
    Variant.LSTM6: (1.0, 0.59, 1.0),
}
# Learned gate kinds in block order: point-wise before dense, unbiased first.
_KINDS = ("pw", "pw+b", "dense")

GATE_NAMES = ("i", "f", "o")


@dataclass(frozen=True)
class VariantSpec:
    """A cell variant plus its activation."""

    variant: Variant
    activation: Activation

    @classmethod
    def make(cls, variant: Variant | str, activation: Activation | str) -> "VariantSpec":
        return cls(Variant(variant), Activation(activation))


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid, computed as 0.5 + 0.5 * tanh(v / 2).

    The tanh form cannot overflow, needs no scipy, and on gate-sized arrays
    runs about twice as fast as scipy.special.expit; the two agree to
    within 3e-16.
    """
    out = np.multiply(v, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def apply_activation(act: Activation, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise tanh, logistic sigmoid, or relu; written into ``out`` when given."""
    if act is Activation.TANH:
        return np.tanh(v, out=out)
    if act is Activation.SIGMOID:
        return sigmoid(v, out=out)
    return np.maximum(v, 0.0, out=out)


def activation_derivative(act: Activation, pre: np.ndarray, value: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Derivative of ``act`` at ``pre``, given ``value = act(pre)``, written into ``out``.

    relu uses the pre-activation (derivative at exactly 0 is taken as 0);
    tanh and sigmoid are cheaper to differentiate from their outputs.
    """
    if act is Activation.TANH:
        np.multiply(value, value, out=out)
        return np.subtract(1.0, out, out=out)
    if act is Activation.SIGMOID:
        np.subtract(1.0, value, out=out)
        return np.multiply(value, out, out=out)
    return np.greater(pre, 0.0, out=out)


class Layout:
    """Where each trainable array of one model sits in its flat parameter vector.

    A step's pre-activations are row blocks of n_h (see ``bptt``): one per
    learned gate, point-wise gates before dense ones, then the candidate.
    Point-wise gates without a bias come before those with one, and dense
    gates always have one, so the biased blocks and the k dense blocks
    each form a run at the bottom. The vector follows the same order,
    after the fused-RNN stacking of Appleyard, Kocisky & Blunsom (2016,
    arXiv:1604.01946): the point-wise gate vectors ``u``, the biases ``b``
    of the biased rows, the dense blocks' input maps ``W`` (k*n_h, n_in)
    and recurrent maps ``U`` (k*n_h, n_h), then the head's W_hy (n_out,
    n_h) and b_y (n_out,). ``stacks`` gives the (slice, shape) of u, b, W
    and U in the vector, so the engine reads each as one array without
    copying; ``fields`` gives the same for every named array (W_c, u_i,
    b_y, ...), in initialization order: gates i, f, o, then the candidate,
    W, U, u, b within each, the head last. ``size`` is the parameter count.
    ``memory`` is False for the srn, which keeps no cell state; ``fixed``
    maps each fixed gate to its value, and ``unit`` names those fixed at 1.
    Built once per (variant, n_in, n_h, n_out) by ``layout``.
    """

    def __init__(self, variant: Variant | str, n_in: int, n_h: int, n_out: int) -> None:
        if min(n_in, n_h, n_out) <= 0:
            raise ValueError("dimensions must be positive")
        self.variant, self.n_in, self.n_h, self.n_out = Variant(variant), n_in, n_h, n_out
        row = GATES[self.variant]
        self.memory = row is not None
        wiring = dict(zip(GATE_NAMES, row or ()))
        self.fixed = {n: g for n, g in wiring.items() if isinstance(g, float)}
        self.gates = sorted((n for n in wiring if n not in self.fixed), key=lambda n: _KINDS.index(wiring[n]))
        self.pointwise = [n for n in self.gates if wiring[n] != "dense"]
        self.dense = [n for n in self.gates if wiring[n] == "dense"] + ["c"]
        biased = [n for n in self.gates if wiring[n] != "pw"] + ["c"]
        self.gate_rows = len(self.gates) * n_h  # the candidate block starts here
        self.dense_from = len(self.pointwise) * n_h
        self.bias_from = self.gate_rows + n_h - len(biased) * n_h
        self.block = {n: slice(j * n_h, (j + 1) * n_h) for j, n in enumerate(self.gates)}
        # Gates fixed at exactly 1 need no multiply: x * 1.0 == x.
        self.unit = {n for n, g in self.fixed.items() if g == 1.0}

        self.size = 0

        def take(shape: tuple[int, ...]) -> tuple[slice, tuple[int, ...]]:
            start, self.size = self.size, self.size + int(np.prod(shape))
            return slice(start, self.size), shape

        self.stacks: dict[str, tuple[slice, tuple[int, ...]]] = {}
        fields = {}
        for kind, names, cols in (("u", self.pointwise, ()), ("b", biased, ()),
                                  ("W", self.dense, (n_in,)), ("U", self.dense, (n_h,))):
            start = self.size
            for name in names:
                fields[f"{kind}_{name}"] = take((n_h, *cols))
            if names:
                self.stacks[kind] = (slice(start, self.size), (len(names) * n_h, *cols))
        fields["W_hy"] = take((n_out, n_h))
        fields["b_y"] = take((n_out,))
        order = [f"{kind}_{g}" for g in (*GATE_NAMES, "c") for kind in "WUub"] + ["W_hy", "b_y"]
        self.fields = {name: fields[name] for name in order if name in fields}


@lru_cache(maxsize=64)
def layout(variant: Variant | str, n_in: int, n_h: int, n_out: int) -> Layout:
    """The Layout of ``variant`` (a Variant or its name) at these dimensions, cached."""
    return Layout(variant, n_in, n_h, n_out)


class Params(Mapping):
    """A model's trainable arrays: named views into one flat float64 vector.

    ``vec`` holds the cell and the output head in the order of ``layout``;
    ``p["W_c"]`` is a view into it, and so is each of ``p.stacks`` (u, b,
    W, U, as Layout describes them). Writing ``p[name] = values`` copies
    into the vector. Gradients come back as a Params of the same layout.
    """

    def __init__(self, layout: Layout, vec: np.ndarray | None = None) -> None:
        self.layout = layout
        self.vec = np.zeros(layout.size) if vec is None else vec
        self.n_in, self.n_h, self.n_out = layout.n_in, layout.n_h, layout.n_out
        self.stacks = {k: self.vec[sl].reshape(shape) for k, (sl, shape) in layout.stacks.items()}
        self._arrays = {k: self.vec[sl].reshape(shape) for k, (sl, shape) in layout.fields.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, values) -> None:
        self._arrays[name][...] = values

    def __iter__(self):
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> view into ``vec``, in layout order."""
        return dict(self._arrays)

    def with_arrays(self, arrays: Mapping[str, np.ndarray]) -> "Params":
        """A new Params of the same layout holding ``arrays[name]`` for each of its names."""
        p = Params(self.layout)
        for name in p:
            p[name] = arrays[name]
        return p


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    # QR of a Gaussian draw, sign-fixed so R's diagonal is positive: makes
    # the decomposition (and hence the init) unique for a given draw.
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def init_params(spec: VariantSpec, n_in: int, n_h: int, n_out: int, seed: int) -> tuple[Params, Params]:
    """Deterministically initialize all trainable arrays for ``spec``.

    Input-to-hidden matrices and the head's W_hy are Glorot-uniform,
    recurrent matrices orthogonal, point-wise gate vectors uniform(-0.1,
    0.1), drawn in the order of ``Layout.fields``. Biases start at zero
    except a dense forget gate's, which starts at one so the memory path
    is open early in training.

    Returns the model as the (cell, head) pair the engine's functions
    take; both are the same Params, whose vector holds cell and head.
    """
    p = Params(layout(spec.variant, n_in, n_h, n_out))
    rng = stream(seed, TAG_INIT)
    for name, a in p.items():
        if name.startswith("W_"):  # Glorot: fan-in plus fan-out is rows plus columns
            limit = np.sqrt(6.0 / (a.shape[0] + a.shape[1]))
            a[...] = rng.uniform(-limit, limit, size=a.shape)
        elif name.startswith("U_"):
            a[...] = _orthogonal(rng, n_h)
        elif name.startswith("u_"):
            a[...] = rng.uniform(-0.1, 0.1, size=a.shape)
    if "f" in p.layout.dense:
        p["b_f"] = 1.0
    return p, p
