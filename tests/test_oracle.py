"""An equation oracle: the forward pass written from README's equations, compared with the engine's.

The oracle reads each trainable array by its name alone (``p["W_i"]``,
``p["u_f"]``, ...) and knows nothing of where the engine keeps it: not the
order of the blocks, the stacks, or which rows carry a bias. A named view
pointed at the wrong slice of the parameter vector therefore shows here,
while the gradient check, which perturbs the vector the engine reads,
cannot see it.
"""

import numpy as np
import pytest

from slimrnn.bptt import forward_sequence
from slimrnn.cells import Activation, Variant, VariantSpec, init_params

# README's variant table: (input, forget, output) per gated variant
GATE_FORMS = {
    "lstm": ("dense", "dense", "dense"),
    "lstm4": ("pw", "pw", "pw"),
    "lstm5": ("pw+b", "pw+b", "pw+b"),
    "lstm4a": ("pw", 0.96, 1.0),
    "lstm5a": ("pw+b", 0.96, 1.0),
    "lstm6": (1.0, 0.59, 1.0),
}
T, N_IN, N_H, N_OUT, B = 28, 28, 100, 10, 3


def sig(v):
    return 1.0 / (1.0 + np.exp(-v))


ACT = {"tanh": np.tanh, "sigmoid": sig, "relu": lambda v: np.maximum(v, 0.0)}


def oracle_forward(variant: str, activation: str, p, x):
    """Logits (B, n_out), hidden states (T+1, n_h, B) and cell states (None for the srn) of batch ``x`` (T, B, n_in)."""
    act = ACT[activation]
    h = [np.zeros((p["U_c"].shape[0], x.shape[1]))]
    c = [np.zeros_like(h[0])]
    for x_t in x:
        x_t, h_prev = x_t.T, h[-1]
        cand = act(p["W_c"] @ x_t + p["U_c"] @ h_prev + p["b_c"][:, None])
        if variant == "srn":  # h_t = act(W_c x_t + U_c h_{t-1} + b_c)
            h.append(cand)
            continue
        gates = []
        for g, form in zip("ifo", GATE_FORMS[variant]):
            if form == "dense":
                gates.append(sig(p[f"W_{g}"] @ x_t + p[f"U_{g}"] @ h_prev + p[f"b_{g}"][:, None]))
            elif form == "pw":
                gates.append(sig(p[f"u_{g}"][:, None] * h_prev))
            elif form == "pw+b":
                gates.append(sig(p[f"u_{g}"][:, None] * h_prev + p[f"b_{g}"][:, None]))
            else:
                gates.append(form)
        i, f, o = gates
        c.append(f * c[-1] + i * cand)
        h.append(o * act(c[-1]))
    logits = (p["W_hy"] @ h[-1]).T + p["b_y"]
    return logits, np.array(h), (None if variant == "srn" else np.array(c))


def rel(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("variant", list(Variant))
def test_engine_matches_the_equation_oracle_at_the_paper_shapes(variant, activation):
    spec = VariantSpec.make(variant, activation)
    p, _ = init_params(spec, N_IN, N_H, N_OUT, seed=3)
    rng = np.random.default_rng(2017)
    for name in p:  # every bias and point-wise vector nonzero, and distinct from every other array
        if name[0] in "bu":
            p[name] = rng.uniform(-0.5, 0.5, size=p[name].shape)
    x = rng.uniform(0.0, 1.0, size=(T, B, N_IN))
    logits, trace = forward_sequence(spec, p, p, x)
    want_logits, want_h, want_c = oracle_forward(variant.value, activation.value, p, x)
    assert rel(logits, want_logits) <= 1e-12
    assert rel(trace.h, want_h) <= 1e-12
    assert (trace.c is None) == (want_c is None)
    if want_c is not None:
        assert rel(trace.c, want_c) <= 1e-12
