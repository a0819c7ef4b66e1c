"""The central-difference check: its replica passes and their cached map, its counts, and that it catches a wrong gradient."""

import json
import math

import numpy as np
import pytest

from slimrnn import bptt, gradcheck
from slimrnn.bptt import Workspace, forward_sequence, softmax_xent
from slimrnn.cells import Activation, Variant, VariantSpec, init_params, layout
from slimrnn.gradcheck import EPS, REL_TOL, check_all, check_gradients, relu_pattern, sweep_losses
from slimrnn.rng import TAG_GRADCHECK, stream

from .fixtures.freeze_gradcheck_counts import BATCH_SIZES, COARSE_EPS, DIMS, OUT, SEEDS

FROZEN = json.loads(OUT.read_text())


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_counts_match_frozen_one_coordinate_check(batch_size, monkeypatch):
    # fixtures/gradcheck_counts.json holds what the check counted with one
    # forward pass per perturbed coordinate
    seen = 0
    for r in check_all(seeds=SEEDS, batch_size=batch_size, **DIMS):
        key = f"{r.variant.value}/{r.activation.value}/{r.seed}/{batch_size}"
        assert [r.compared, r.skipped] == FROZEN[key], key
        assert r.passed, (key, r.max_rel_err)
        seen += 1
    monkeypatch.setattr(gradcheck, "EPS", COARSE_EPS)
    for r in check_all(seeds=SEEDS, activations=("relu",), batch_size=batch_size, **DIMS):
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


@pytest.mark.parametrize("replica_units", [gradcheck.REPLICA_UNITS, 5])
@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("variant", list(Variant))
def test_replica_losses_match_standalone_forward(variant, activation, replica_units, monkeypatch):
    # n_h = 5: 32 replicas per pass at the default, one when n_h >= REPLICA_UNITS
    monkeypatch.setattr(gradcheck, "REPLICA_UNITS", replica_units)
    spec, cell, head, seqs, labels = sweep_setup(variant, activation)
    P = cell.vec.size
    R = max(1, replica_units // cell.n_h)
    assert R == 1 or (2 * P + 1) % R != 0  # the last pass is a partial one

    widths = []
    monkeypatch.setattr(gradcheck, "forward_sequence",
                        lambda s, p, h, x, ws: widths.append(p.n_h) or forward_sequence(s, p, h, x, ws))
    losses, same = sweep_losses(spec, cell, seqs, labels, Workspace())
    assert widths == [R * cell.n_h] * math.ceil((2 * P + 1) / R)
    assert losses.shape == same.shape == (2 * P + 1,)

    base_pattern = None
    for k in range(2 * P + 1):
        p = cell.with_arrays(cell)  # a copy; vector k > 0 moves coordinate (k-1)//2 of its vec
        if k:
            p.vec[(k - 1) // 2] += EPS if k % 2 else -EPS
        logits, trace = forward_sequence(spec, p, p, seqs)
        xent, _ = softmax_xent(logits, labels)
        want = xent.sum() / len(labels)
        assert abs(losses[k] - want) <= 1e-12 * abs(want), k
        pattern = relu_pattern(trace)
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
    result = check_gradients(variant, "tanh", seed=0, batch_size=batch_size, ws=Workspace())
    assert result.max_rel_err > REL_TOL
    assert not result.passed


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("variant", list(Variant))
def test_sweep_is_bitwise_equal_with_cold_and_warm_replica_map(variant, batch_size):
    spec, cell, _, seqs, labels = sweep_setup(variant, "relu", batch_size=batch_size)
    gradcheck._replica_map.cache_clear()
    cold = sweep_losses(spec, cell, seqs, labels, Workspace())
    assert gradcheck._replica_map.cache_info().misses == 1
    warm = sweep_losses(spec, cell, seqs, labels, Workspace())
    assert gradcheck._replica_map.cache_info().hits == 1
    for a, b in zip(cold, warm):
        assert a.tobytes() == b.tobytes()


def test_check_all_builds_one_workspace(monkeypatch):
    # the analytic pass and the sweep of every configuration share it
    made = []

    class Counted(Workspace):
        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(gradcheck, "Workspace", Counted)
    monkeypatch.setattr(bptt, "Workspace", Counted)
    assert len(check_all()) == 63
    assert len(made) == 1


def test_interleaved_checks_match_fresh_ones():
    # a check must not see the vector or trace of one at another layout
    configs = [dict(variant="lstm"), dict(variant="lstm6", n_in=2, n_h=7, n_out=3), dict(variant="lstm")]
    fresh = []
    for config in configs:
        gradcheck._replica_map.cache_clear()
        fresh.append(check_gradients(activation="relu", batch_size=3, ws=Workspace(), **config))
    ws = Workspace()
    interleaved = [check_gradients(activation="relu", batch_size=3, ws=ws, **config) for config in configs]
    assert interleaved == fresh
    assert all(r.passed for r in fresh)


def test_cached_replica_map_is_read_only():
    replica, where = gradcheck._replica_map(Variant.LSTM, 3, 5, 4, 32)
    assert replica.n_h == 32 * 5 and where.shape == (32, layout("lstm", 3, 5, 4).size)
    assert not where.flags.writeable
    with pytest.raises(ValueError):
        where[0, 0] = 0


def test_replica_map_is_cached_per_replica_count(monkeypatch):
    spec, cell, _, seqs, labels = sweep_setup("lstm6", "tanh")
    gradcheck._replica_map.cache_clear()
    sweep_losses(spec, cell, seqs, labels, Workspace())
    monkeypatch.setattr(gradcheck, "REPLICA_UNITS", 5)
    sweep_losses(spec, cell, seqs, labels, Workspace())
    sweep_losses(spec, cell, seqs, labels, Workspace())
    info = gradcheck._replica_map.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 1)
