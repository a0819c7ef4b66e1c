"""RMSprop over one flat parameter vector, updated in place.

Plain (uncentered, momentum-free) RMSprop: each coordinate keeps a decayed
mean of squared gradients and divides its step by the root of it,

    r <- rho * r + (1 - rho) * g^2
    w <- w - eta * g / (sqrt(r) + eps)

The parameters, their gradient and the accumulators are vectors of one
layout (``cells.Params.vec``); a step rewrites ``w`` and ``r`` in place.
Defaults rho=0.9, eps=1e-7 are deliberate and overridable; the training
configuration validates them.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RHO = 0.9
DEFAULT_EPS = 1e-7


def rmsprop_step(w: np.ndarray, g: np.ndarray, acc: np.ndarray, eta: float, rho: float, eps: float) -> None:
    """One update of every coordinate of ``w`` and its accumulator ``acc``, given the gradient ``g``."""
    if not w.shape == g.shape == acc.shape:
        raise ValueError(f"shapes differ: parameters {w.shape}, gradient {g.shape}, accumulator {acc.shape}")
    acc *= rho
    acc += (1.0 - rho) * g * g
    w -= eta * g / (np.sqrt(acc) + eps)
