"""Central finite-difference verification of the hand-derived gradients.

For every trainable coordinate the loss is evaluated at +/- eps and the
central difference is compared against the analytic gradient. The
comparison is relative:

    err = |analytic - numeric| / max(|analytic|, |numeric|, 1e-4)

The 1e-4 floor keeps coordinates whose gradient vanishes from dividing
finite-difference roundoff (~1e-10 at eps=1e-5) by zero; real errors are
proportional to the gradient itself and still surface.

relu has a kink at zero, where no finite difference is trustworthy. A
coordinate is only compared when every relu input (candidate
pre-activations and cell states fed to the output activation, at every
step of every example) lies on the same side of the kink in the
unperturbed pass and in both perturbed passes: the +/- eps evaluations
then lie on one smooth piece of the loss, so the central difference is
as accurate there as for tanh or sigmoid. Inputs that are exactly zero
count as off: a relu cell pins many values at 0.0 by construction
(clamped candidates feeding a zero cell state), and relu and the
hand-derived derivative (taken as 0 there) agree with a value pushed
below zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bptt import Trace, batch_loss_and_grads, forward_sequence, softmax_xent
from .cells import Activation, Variant, VariantSpec, init_params
from .data import SequenceBatch
from .rng import TAG_GRADCHECK, stream

EPS = 1e-5
REL_TOL = 1e-4
_ERR_FLOOR = 1e-4


def relu_pattern(spec: VariantSpec, trace: Trace) -> np.ndarray | None:
    """Which relu inputs of a forward pass are positive; None when the cell has no relu."""
    if spec.activation is not Activation.RELU:
        return None
    on = trace.pre[:, -trace.h.shape[1]:] > 0.0
    if trace.c is None:
        return on
    return np.concatenate([on, trace.c[1:] > 0.0])


def _flatten(arrays: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays.values()])


def _unflatten(flat: np.ndarray, template: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    out = {}
    pos = 0
    for name, a in template.items():
        out[name] = flat[pos : pos + a.size].reshape(a.shape)
        pos += a.size
    return out


@dataclass
class CheckResult:
    variant: Variant
    activation: Activation
    seed: int
    max_rel_err: float
    compared: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.compared > 0 and self.max_rel_err < REL_TOL


def check_gradients(
    variant: Variant | str,
    activation: Activation | str,
    n_in: int = 3,
    n_h: int = 5,
    n_out: int = 4,
    T: int = 4,
    seed: int = 0,
    eps: float = EPS,
    batch_size: int = 1,
) -> CheckResult:
    """Compare batch BPTT gradients against central differences for one config.

    The loss is the mean over ``batch_size`` random sequences, and the
    relu kink rule covers all of them.
    """
    spec = VariantSpec.make(variant, activation)
    cell, head = init_params(spec, n_in, n_h, n_out, seed)
    rng = stream(seed, TAG_GRADCHECK)
    batch = SequenceBatch(
        inputs=rng.uniform(0.0, 1.0, size=(batch_size, T, n_in)),
        labels=rng.integers(0, n_out, size=batch_size),
    )
    seqs = np.ascontiguousarray(np.swapaxes(batch.inputs, 0, 1))

    _, grads, _ = batch_loss_and_grads(spec, cell, head, batch)
    analytic = _flatten(grads)

    # The parameters below are views into ``work``, which the loop perturbs in place.
    params = {**cell.arrays(), **head.arrays()}
    base = _flatten(params)
    work = base.copy()
    views = _unflatten(work, params)
    cell, head = cell.with_arrays(views), head.with_arrays(views)

    def loss_at() -> tuple[float, np.ndarray | None]:
        logits, trace = forward_sequence(spec, cell, head, seqs)
        losses, _ = softmax_xent(logits, batch.labels)
        return float(losses.sum() / batch_size), relu_pattern(spec, trace)

    _, pattern = loss_at()

    max_err = 0.0
    compared = 0
    skipped = 0
    for j in range(base.size):
        work[j] = base[j] + eps
        lo_plus, p_plus = loss_at()
        work[j] = base[j] - eps
        lo_minus, p_minus = loss_at()
        work[j] = base[j]
        if pattern is not None and not (
            np.array_equal(p_plus, pattern) and np.array_equal(p_minus, pattern)
        ):
            skipped += 1
            continue
        numeric = (lo_plus - lo_minus) / (2.0 * eps)
        scale = max(abs(analytic[j]), abs(numeric), _ERR_FLOOR)
        max_err = max(max_err, abs(analytic[j] - numeric) / scale)
        compared += 1

    return CheckResult(
        variant=spec.variant, activation=spec.activation, seed=seed,
        max_rel_err=max_err, compared=compared, skipped=skipped,
    )


def check_all(
    seeds: tuple[int, ...] = (0, 1, 2),
    variants: tuple[Variant, ...] = tuple(Variant),
    activations: tuple[Activation, ...] = tuple(Activation),
    **dims,
) -> list[CheckResult]:
    """The full verification matrix: variants x activations x seeds."""
    return [
        check_gradients(v, a, seed=s, **dims)
        for v in variants
        for a in activations
        for s in seeds
    ]
