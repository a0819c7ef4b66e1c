"""Recurrent cell variants: the gate table, parameters, counting and initialization.

Seven cells share one interface (their forward and backward passes are in
``bptt``). ``srn`` is the ungated baseline

    h_t = act(W_c x_t + U_c h_{t-1} + b_c)

and the remaining six are memory cells of the form

    c_t = f_t * c_{t-1} + i_t * cand_t,    cand_t = act(W_c x_t + U_c h_{t-1} + b_c)
    h_t = o_t * act(c_t)

differing only in how the input/forget/output gates i, f, o are produced:

    lstm     dense gates   sigmoid(W_g x_t + U_g h_{t-1} + b_g)
    lstm4    point-wise    sigmoid(u_g * h_{t-1})
    lstm5    point-wise    sigmoid(u_g * h_{t-1} + b_g)
    lstm4a   input gate as lstm4; f = 0.96, o = 1 fixed
    lstm5a   input gate as lstm5; f = 0.96, o = 1 fixed
    lstm6    all gates fixed: i = 1, f = 0.59, o = 1

Gates always use the logistic sigmoid; ``act`` is the configurable cell
activation and is applied both to the candidate and to the cell state on
output. Fixed forget constants are strictly below one, which keeps the
cell bounded-input bounded-output (the state of an undriven cell decays
geometrically).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

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


class GateStyle(Enum):
    DENSE = "dense"          # sigmoid(W x + U h + b)
    POINTWISE = "pointwise"  # sigmoid(u * h [+ b])
    CONSTANT = "constant"


@dataclass(frozen=True)
class GateSpec:
    style: GateStyle
    bias: bool = False
    const: float | None = None


_DENSE = GateSpec(GateStyle.DENSE, bias=True)
_PW = GateSpec(GateStyle.POINTWISE, bias=False)
_PWB = GateSpec(GateStyle.POINTWISE, bias=True)

# (input, forget, output) gate wiring per variant; None marks the ungated srn.
_GATES: dict[Variant, tuple[GateSpec, GateSpec, GateSpec] | None] = {
    Variant.SRN: None,
    Variant.LSTM: (_DENSE, _DENSE, _DENSE),
    Variant.LSTM4: (_PW, _PW, _PW),
    Variant.LSTM5: (_PWB, _PWB, _PWB),
    Variant.LSTM4A: (_PW, GateSpec(GateStyle.CONSTANT, const=0.96), GateSpec(GateStyle.CONSTANT, const=1.0)),
    Variant.LSTM5A: (_PWB, GateSpec(GateStyle.CONSTANT, const=0.96), GateSpec(GateStyle.CONSTANT, const=1.0)),
    Variant.LSTM6: (
        GateSpec(GateStyle.CONSTANT, const=1.0),
        GateSpec(GateStyle.CONSTANT, const=0.59),
        GateSpec(GateStyle.CONSTANT, const=1.0),
    ),
}

GATE_NAMES = ("i", "f", "o")


@dataclass(frozen=True)
class VariantSpec:
    """A cell variant plus its activation and any fixed gate constants."""

    variant: Variant
    activation: Activation
    input_gate_const: float | None = None
    forget_const: float | None = None
    output_gate_const: float | None = None

    def __post_init__(self) -> None:
        gates = _GATES[self.variant]
        expected = (None, None, None) if gates is None else tuple(g.const for g in gates)
        got = (self.input_gate_const, self.forget_const, self.output_gate_const)
        if got != expected:
            raise ValueError(
                f"{self.variant.value}: gate constants {got} do not match the "
                f"variant definition {expected}"
            )
        if self.forget_const is not None and not abs(self.forget_const) < 1.0:
            raise ValueError("fixed forget constant must satisfy |f| < 1")

    @classmethod
    def make(cls, variant: Variant | str, activation: Activation | str) -> "VariantSpec":
        variant = Variant(variant)
        activation = Activation(activation)
        gates = _GATES[variant]
        consts = (None, None, None) if gates is None else tuple(g.const for g in gates)
        return cls(variant, activation, *consts)

    @property
    def gates(self) -> tuple[GateSpec, GateSpec, GateSpec] | None:
        return _GATES[self.variant]


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


def activation_derivative(act: Activation, pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Derivative of ``act`` at ``pre``, given ``out = act(pre)``.

    relu uses the pre-activation (derivative at exactly 0 is taken as 0);
    tanh and sigmoid are cheaper to differentiate from their outputs.
    """
    if act is Activation.TANH:
        return 1.0 - out * out
    if act is Activation.SIGMOID:
        return out * (1.0 - out)
    return (pre > 0.0).astype(np.float64)


@dataclass
class CellParams:
    """Trainable arrays of one cell; only the fields the variant uses are set.

    W_* are input-to-hidden (n_h, n_in), U_* recurrent (n_h, n_h), u_*
    point-wise gate vectors (n_h,), b_* biases (n_h,). The srn reuses the
    candidate slots W_c/U_c/b_c for its single affine map.
    """

    W_c: np.ndarray
    U_c: np.ndarray
    b_c: np.ndarray
    W_i: np.ndarray | None = None
    U_i: np.ndarray | None = None
    b_i: np.ndarray | None = None
    W_f: np.ndarray | None = None
    U_f: np.ndarray | None = None
    b_f: np.ndarray | None = None
    W_o: np.ndarray | None = None
    U_o: np.ndarray | None = None
    b_o: np.ndarray | None = None
    u_i: np.ndarray | None = None
    u_f: np.ndarray | None = None
    u_o: np.ndarray | None = None

    @property
    def n_in(self) -> int:
        return self.W_c.shape[1]

    @property
    def n_h(self) -> int:
        return self.W_c.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        """Present trainable arrays, in canonical field order."""
        out = {}
        for name in param_field_names_from_params(self):
            out[name] = getattr(self, name)
        return out

    def with_arrays(self, arrays: dict[str, np.ndarray]) -> "CellParams":
        """Copy of self with every present field replaced from ``arrays``."""
        return replace(self, **{k: arrays[k] for k in self.arrays()})


@dataclass
class OutputHead:
    """Affine readout h -> logits."""

    W_hy: np.ndarray
    b_y: np.ndarray

    @property
    def n_out(self) -> int:
        return self.b_y.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"W_hy": self.W_hy, "b_y": self.b_y}

    def with_arrays(self, arrays: dict[str, np.ndarray]) -> "OutputHead":
        return OutputHead(W_hy=arrays["W_hy"], b_y=arrays["b_y"])


def param_field_names(variant: Variant | str) -> tuple[str, ...]:
    """Ordered trainable cell fields demanded by a variant."""
    variant = Variant(variant)
    gates = _GATES[variant]
    names: list[str] = []
    if gates is not None:
        for gname, gate in zip(GATE_NAMES, gates):
            if gate.style is GateStyle.DENSE:
                names += [f"W_{gname}", f"U_{gname}", f"b_{gname}"]
            elif gate.style is GateStyle.POINTWISE:
                names.append(f"u_{gname}")
                if gate.bias:
                    names.append(f"b_{gname}")
    names += ["W_c", "U_c", "b_c"]
    return tuple(names)


def param_field_names_from_params(p: CellParams) -> tuple[str, ...]:
    """Present fields of ``p``, in the same canonical order as param_field_names."""
    canonical: list[str] = []
    for gname in GATE_NAMES:
        canonical += [f"W_{gname}", f"U_{gname}", f"u_{gname}", f"b_{gname}"]
    canonical += ["W_c", "U_c", "b_c"]
    return tuple(n for n in canonical if getattr(p, n) is not None)


def param_count(spec: VariantSpec, n_in: int, n_h: int, n_out: int) -> int:
    """Total trainable scalars of cell plus output head."""
    if min(n_in, n_h, n_out) <= 0:
        raise ValueError("dimensions must be positive")
    shapes = _param_shapes(spec.variant, n_in, n_h)
    total = sum(int(np.prod(s)) for s in shapes.values())
    return total + n_h * n_out + n_out


def _param_shapes(variant: Variant, n_in: int, n_h: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for name in param_field_names(variant):
        if name.startswith("W_"):
            shapes[name] = (n_h, n_in)
        elif name.startswith("U_"):
            shapes[name] = (n_h, n_h)
        else:  # u_* and b_* are per-unit vectors
            shapes[name] = (n_h,)
    return shapes


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    # QR of a Gaussian draw, sign-fixed so R's diagonal is positive: makes
    # the decomposition (and hence the init) unique for a given draw.
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def _glorot(rng: np.random.Generator, shape: tuple[int, int], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(
    spec: VariantSpec, n_in: int, n_h: int, n_out: int, seed: int
) -> tuple[CellParams, OutputHead]:
    """Deterministically initialize all trainable arrays for ``spec``.

    Input-to-hidden matrices are Glorot-uniform, recurrent matrices
    orthogonal, point-wise gate vectors uniform(-0.1, 0.1). Biases start
    at zero except the dense-gate cell's forget bias, which starts at one
    so the memory path is open early in training.
    """
    if min(n_in, n_h, n_out) <= 0:
        raise ValueError("dimensions must be positive")
    rng = stream(seed, TAG_INIT)
    values: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(spec.variant, n_in, n_h).items():
        if name.startswith("W_"):
            values[name] = _glorot(rng, shape, n_in, n_h)
        elif name.startswith("U_"):
            values[name] = _orthogonal(rng, n_h)
        elif name.startswith("u_"):
            values[name] = rng.uniform(-0.1, 0.1, size=shape)
        elif name == "b_f" and spec.variant is Variant.LSTM:
            values[name] = np.ones(shape)
        else:
            values[name] = np.zeros(shape)
    head = OutputHead(
        W_hy=_glorot(rng, (n_out, n_h), n_h, n_out),
        b_y=np.zeros(n_out),
    )
    return CellParams(**values), head
