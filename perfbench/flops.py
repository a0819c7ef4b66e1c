"""Computed (not measured) multiply-add counts per example, per variant.

One multiply-add (madd) is one product with its accumulation. The counts
follow the per-step equations of the cells (README) and of the
hand-derived backward pass, independent of how an engine schedules them:

forward, per step
    candidate            W_c x + U_c h                n_h*(n_in + n_h)
    dense gate           W_g x + U_g h                n_h*(n_in + n_h)
    point-wise gate      u_g * h                      n_h
    memory update        f*c_prev + i*cand, o*act(c)  3*n_h  (srn: none)
forward, once            head W_hy h_T                n_out*n_h

backward, per step
    candidate            dU^T da, dW_c, dU_c          n_h*(n_in + 2*n_h)
    dense gate           dU_g^T da, dW_g, dU_g        n_h*(n_in + 2*n_h)
    point-wise gate      u_g*da, du_g                 2*n_h
    learned gate delta   dg*state, *g*(1-g)           3*n_h per learned gate
    state chain          do/dc/dc*f products          3*n_h  (srn: n_h)
backward, once           head outer product, W_hy^T   2*n_out*n_h

Activation functions and their derivatives are not counted, so the counts
do not depend on tanh/sigmoid/relu. Constant gates cost nothing beyond the
state-chain products, which is the point: once an engine is batched, these
counts show which FLOPs still separate the variants.
"""

from __future__ import annotations

DENSE, POINTWISE, CONSTANT = "dense", "pointwise", "constant"

# (input, forget, output) gate kinds per variant, as in the README table;
# None marks the ungated srn.
GATES: dict[str, tuple[str, str, str] | None] = {
    "srn": None,
    "lstm": (DENSE, DENSE, DENSE),
    "lstm4": (POINTWISE, POINTWISE, POINTWISE),
    "lstm5": (POINTWISE, POINTWISE, POINTWISE),
    "lstm4a": (POINTWISE, CONSTANT, CONSTANT),
    "lstm5a": (POINTWISE, CONSTANT, CONSTANT),
    "lstm6": (CONSTANT, CONSTANT, CONSTANT),
}


def forward_madds(variant: str, T: int, n_in: int, n_h: int, n_out: int) -> int:
    """Multiply-adds of one forward pass over a length-T sequence plus the head."""
    gates = GATES[variant]
    per_step = n_h * (n_in + n_h)
    if gates is not None:
        per_step += 3 * n_h
        for kind in gates:
            if kind == DENSE:
                per_step += n_h * (n_in + n_h)
            elif kind == POINTWISE:
                per_step += n_h
    return T * per_step + n_out * n_h


def backward_madds(variant: str, T: int, n_in: int, n_h: int, n_out: int) -> int:
    """Multiply-adds of one backward pass, weight gradients included."""
    gates = GATES[variant]
    per_step = n_h * (n_in + 2 * n_h)
    if gates is None:
        per_step += n_h
    else:
        per_step += 3 * n_h
        for kind in gates:
            if kind == DENSE:
                per_step += n_h * (n_in + 2 * n_h) + 3 * n_h
            elif kind == POINTWISE:
                per_step += 2 * n_h + 3 * n_h
    return T * per_step + 2 * n_out * n_h
