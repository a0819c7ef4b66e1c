"""RMSprop over one flat parameter vector, updated in place.

Plain (uncentered, momentum-free) RMSprop: each coordinate keeps a decayed
mean of squared gradients and divides its step by the root of it,

    r <- RHO * r + (1 - RHO) * g^2
    w <- w - eta * g / (sqrt(r) + EPS)

The parameters, their gradient and the accumulators are vectors of one
layout (``cells.Params.vec``); a step rewrites ``w`` and ``r`` in place.
RHO and EPS are fixed constants of the training protocol; only the
learning rate eta is configurable.
"""

from __future__ import annotations

import numpy as np

RHO = 0.9
EPS = 1e-7


def rmsprop_step(w: np.ndarray, g: np.ndarray, acc: np.ndarray, eta: float) -> None:
    """One update of every coordinate of ``w`` and its accumulator ``acc``, given the gradient ``g``."""
    if not w.shape == g.shape == acc.shape:
        raise ValueError(f"shapes differ: parameters {w.shape}, gradient {g.shape}, accumulator {acc.shape}")
    acc *= RHO
    acc += (1.0 - RHO) * g * g
    w -= eta * g / (np.sqrt(acc) + EPS)
