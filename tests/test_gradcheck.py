"""The central-difference check: its replica passes, its counts, and that it catches a wrong gradient."""

import json
import math

import numpy as np
import pytest

from slimrnn import gradcheck
from slimrnn.bptt import forward_sequence, softmax_xent
from slimrnn.cells import Activation, Variant, VariantSpec, init_params
from slimrnn.gradcheck import EPS, REL_TOL, check_all, check_gradients, relu_pattern, sweep_losses
from slimrnn.rng import TAG_GRADCHECK, stream

from .fixtures.freeze_gradcheck_counts import BATCH_SIZES, COARSE_EPS, DIMS, OUT, SEEDS

FROZEN = json.loads(OUT.read_text())


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_counts_match_frozen_one_coordinate_check(batch_size):
    # fixtures/gradcheck_counts.json holds what the check counted with one
    # forward pass per perturbed coordinate
    seen = 0
    for r in check_all(seeds=SEEDS, batch_size=batch_size, **DIMS):
        key = f"{r.variant.value}/{r.activation.value}/{r.seed}/{batch_size}"
        assert [r.compared, r.skipped] == FROZEN[key], key
        assert r.passed, (key, r.max_rel_err)
        seen += 1
    for r in check_all(seeds=SEEDS, activations=("relu",), batch_size=batch_size, eps=COARSE_EPS, **DIMS):
        key = f"{r.variant.value}/relu/{r.seed}/{batch_size}/eps={COARSE_EPS:g}"
        assert [r.compared, r.skipped] == FROZEN[key], key
        seen += 1
    assert seen == len(FROZEN) // len(BATCH_SIZES)


def sweep_setup(variant, activation, batch_size=3, n_in=3, n_h=5, n_out=4, T=4, seed=0):
    spec = VariantSpec.make(variant, activation)
    cell, head = init_params(spec, n_in, n_h, n_out, seed)
    rng = stream(seed, TAG_GRADCHECK)
    seqs = rng.uniform(0.0, 1.0, size=(T, batch_size, n_in))
    labels = rng.integers(0, n_out, size=batch_size)
    return spec, cell, head, seqs, labels


def perturbed(params, j, delta):
    """Copies of ``params`` with ``delta`` added to coordinate j of their flattened concatenation."""
    out = {name: a.copy() for name, a in params.items()}
    for a in out.values():
        if j < a.size:
            a.flat[j] = a.flat[j] + delta
            return out
        j -= a.size
    raise IndexError("coordinate out of range")


@pytest.mark.parametrize("replica_units", [gradcheck.REPLICA_UNITS, 5])
@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("variant", list(Variant))
def test_replica_losses_match_standalone_forward(variant, activation, replica_units, monkeypatch):
    # n_h = 5: 32 replicas per pass at the default, one when n_h >= REPLICA_UNITS
    monkeypatch.setattr(gradcheck, "REPLICA_UNITS", replica_units)
    spec, cell, head, seqs, labels = sweep_setup(variant, activation)
    params = {**cell.arrays(), **head.arrays()}
    P = sum(a.size for a in params.values())
    R = max(1, replica_units // cell.n_h)
    assert R == 1 or (2 * P + 1) % R != 0  # the last pass is a partial one

    widths = []
    monkeypatch.setattr(gradcheck, "forward_sequence",
                        lambda s, p, h, x: widths.append(p.n_h) or forward_sequence(s, p, h, x))
    losses, same = sweep_losses(spec, cell, head, seqs, labels)
    assert widths == [R * cell.n_h] * math.ceil((2 * P + 1) / R)
    assert losses.shape == same.shape == (2 * P + 1,)

    base_pattern = None
    for k in range(2 * P + 1):
        arrays = params if k == 0 else perturbed(params, (k - 1) // 2, EPS if k % 2 else -EPS)
        logits, trace = forward_sequence(spec, cell.with_arrays(arrays), head.with_arrays(arrays), seqs)
        xent, _ = softmax_xent(logits, labels)
        want = xent.sum() / len(labels)
        assert abs(losses[k] - want) <= 1e-12 * abs(want), k
        pattern = relu_pattern(spec, trace)
        if k == 0:
            base_pattern = pattern
        assert same[k] == (pattern is None or np.array_equal(pattern, base_pattern)), k


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("variant", list(Variant))
def test_check_fails_on_one_corrupted_analytic_coordinate(variant, batch_size, monkeypatch):
    real = gradcheck.batch_loss_and_grads

    def corrupted(*args):
        loss, grads, correct = real(*args)
        grads["W_c"][1, 2] += 1e-3
        return loss, grads, correct

    monkeypatch.setattr(gradcheck, "batch_loss_and_grads", corrupted)
    result = check_gradients(variant, "tanh", seed=0, batch_size=batch_size)
    assert result.max_rel_err > REL_TOL
    assert not result.passed
