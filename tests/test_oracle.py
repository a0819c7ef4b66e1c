"""An equation oracle: the forward pass and the loss written from README's equations, compared with the engine's.

The oracle reads each trainable array by its name alone (``p["W_i"]``,
``p["u_f"]``, ...) and knows nothing of where the engine keeps it: not the
order of the blocks, the stacks, or which rows carry a bias. A named view
pointed at the wrong slice of the parameter vector therefore shows here,
while the gradient check, which perturbs the vector the engine reads,
cannot see it.

Run in complex128, the oracle also checks the engine's backward exactly. A
complex step (Squire & Trapp 1998, "Using Complex Variables to Estimate
Derivatives of Real Functions") gives the loss's derivative along a
direction v as g·v = Im L(p + i·H·v) / H. It subtracts nothing, so at
H = 1e-30 it is exact to rounding, at relu kinks too: relu is
``where(Re v > 0, v, 0)``, the engine's convention at 0, and the loss a
log-sum-exp shifted by the real part's row maxima. The named arrays may
share a leading axis of directions, which the oracle runs side by side.
"""

import numpy as np
import pytest

from slimrnn.bptt import batch_loss_and_grads, forward_sequence
from slimrnn.cells import Activation, Variant, VariantSpec, init_params
from slimrnn.data import SequenceBatch

from .conftest import seeded_batch

# README's variant table: (input, forget, output) per gated variant
GATE_FORMS = {
    "lstm": ("dense", "dense", "dense"),
    "lstm4": ("pw", "pw", "pw"),
    "lstm5": ("pw+b", "pw+b", "pw+b"),
    "lstm4a": ("pw", 0.96, 1.0),
    "lstm5a": ("pw+b", 0.96, 1.0),
    "lstm6": (1.0, 0.59, 1.0),
}
T, N_IN, N_H, N_OUT = 28, 28, 100, 10
H = 1e-30  # the complex step


def sig(v):
    return 1.0 / (1.0 + np.exp(-v))


ACT = {"tanh": np.tanh, "sigmoid": sig, "relu": lambda v: np.where(v.real > 0.0, v, 0.0)}


def oracle_forward(variant: str, activation: str, p, x):
    """Logits (..., B, n_out) and the T+1 hidden and cell states (..., n_h, B) of batch ``x`` (T, B, n_in).

    ``...`` is the leading axis the arrays of ``p`` share, if any; the srn has no cell states (None).
    """
    act = ACT[activation]
    h = [np.zeros_like(p["W_c"] @ x[0].T)]
    c = [h[0]]
    for x_t in x:
        x_t, h_prev = x_t.T, h[-1]
        cand = act(p["W_c"] @ x_t + p["U_c"] @ h_prev + p["b_c"][..., None])
        if variant == "srn":  # h_t = act(W_c x_t + U_c h_{t-1} + b_c)
            h.append(cand)
            continue
        gates = []
        for g, form in zip("ifo", GATE_FORMS[variant]):
            if form == "dense":
                gates.append(sig(p[f"W_{g}"] @ x_t + p[f"U_{g}"] @ h_prev + p[f"b_{g}"][..., None]))
            elif form == "pw":
                gates.append(sig(p[f"u_{g}"][..., None] * h_prev))
            elif form == "pw+b":
                gates.append(sig(p[f"u_{g}"][..., None] * h_prev + p[f"b_{g}"][..., None]))
            else:
                gates.append(form)
        i, f, o = gates
        c.append(f * c[-1] + i * cand)
        h.append(o * act(c[-1]))
    logits = np.swapaxes(p["W_hy"] @ h[-1], -1, -2) + p["b_y"][..., None, :]
    return logits, h, (None if variant == "srn" else c)


def complex_step(spec: VariantSpec, p, directions, batch: SequenceBatch):
    """Exact g·v per direction (``directions``: name -> (K, *shape)); and the loss and the logits at ``p``."""
    q = {name: p[name] + 1j * H * directions[name] for name in p}
    logits, _, _ = oracle_forward(spec.variant.value, spec.activation.value, q, np.swapaxes(batch.inputs, 0, 1))
    shift = logits.real.max(axis=-1, keepdims=True)
    xent = np.log(np.exp(logits - shift).sum(axis=-1)) + shift[..., 0]
    loss = (xent - logits[..., np.arange(len(batch.labels)), batch.labels]).mean(axis=-1)
    return loss.imag / H, loss[0].real, logits[0].real


def paper_model(variant, activation):
    """A model at the paper's shapes whose every bias and point-wise vector is nonzero and distinct from every other
    array, and the generator that drew them."""
    spec = VariantSpec.make(variant, activation)
    p, _ = init_params(spec, N_IN, N_H, N_OUT, seed=3)
    rng = np.random.default_rng(2017)
    for name in p:
        if name[0] in "bu":
            p[name] = rng.uniform(-0.5, 0.5, size=p[name].shape)
    return spec, p, rng


def rel(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("variant", list(Variant))
def test_engine_matches_the_equation_oracle_at_the_paper_shapes(variant, activation):
    spec, p, rng = paper_model(variant, activation)
    x = rng.uniform(0.0, 1.0, size=(T, 3, N_IN))
    logits, trace = forward_sequence(spec, p, p, x)
    want_logits, want_h, want_c = oracle_forward(variant.value, activation.value, p, x)
    assert rel(logits, want_logits) <= 1e-12
    assert rel(trace.h, want_h) <= 1e-12
    assert (trace.c is None) == (want_c is None)
    if want_c is not None:
        assert rel(trace.c, want_c) <= 1e-12


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("variant", list(Variant))
def test_every_gradient_coordinate_is_exact_at_the_small_shape(variant, activation):
    # one direction per coordinate, name by name: n_in 3, n_h 5, n_out 4, T 4, at B = 1, 3 and 5
    spec = VariantSpec.make(variant, activation)
    for size in (1, 3, 5):
        p, _ = init_params(spec, 3, 5, 4, seed=size)
        batch = seeded_batch([20170714, size], size, 4, 3, 4)
        sizes = [a.size for a in p.values()]
        cuts = np.cumsum(sizes)[:-1]
        units = {name: e.reshape(-1, *p[name].shape) for name, e in zip(p, np.split(np.eye(sum(sizes)), cuts, axis=1))}
        slope, want_loss, logits = complex_step(spec, p, units, batch)
        loss, grads, correct = batch_loss_and_grads(spec, p, p, batch)
        for name, want in zip(p, np.split(slope, cuts)):
            assert np.max(np.abs(grads[name].ravel() - want)) <= 1e-12 * np.max(np.abs(want)), (size, name)
        assert abs(loss - want_loss) <= 1e-12 * want_loss, size
        assert correct == np.count_nonzero(logits.argmax(axis=1) == batch.labels), size


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("variant", list(Variant))
def test_the_gradient_is_exact_along_one_direction_per_array_at_the_paper_shapes(variant, activation):
    spec, p, rng = paper_model(variant, activation)
    batch = SequenceBatch(inputs=rng.uniform(0.0, 1.0, size=(32, T, N_IN)), labels=rng.integers(0, N_OUT, size=32))
    directions = {name: np.zeros((len(p), *a.shape)) for name, a in p.items()}
    for k, name in enumerate(p):
        directions[name][k] = rng.standard_normal(p[name].shape)
    slope, _, _ = complex_step(spec, p, directions, batch)
    _, grads, _ = batch_loss_and_grads(spec, p, p, batch)
    got = np.array([np.vdot(grads[name], directions[name][k]) for k, name in enumerate(p)])
    assert (np.abs(got - slope) <= 1e-11 * np.abs(slope)).all(), dict(zip(p, np.abs(got - slope) / np.abs(slope)))
