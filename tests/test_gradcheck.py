"""The central-difference check: its replica passes and their cached map, its counts, and that it catches a wrong gradient."""

import math

import numpy as np
import pytest

from slimrnn import bptt, gradcheck
from slimrnn.bptt import Workspace, forward_sequence, softmax_xent
from slimrnn.cells import Activation, Layout, Variant, VariantSpec, init_params, layout
from slimrnn.gradcheck import EPS, REL_TOL, check_all, check_gradients, relu_pattern, sweep_losses
from slimrnn.rng import TAG_GRADCHECK, stream

from .fixtures.freeze import CHECK_SIZES, COARSE_EPS, DIMS, SEEDS, load

FROZEN = load("gradcheck_counts.json")


@pytest.mark.parametrize("batch_size", CHECK_SIZES)
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
    assert seen == len(FROZEN) // len(CHECK_SIZES)


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
    # n_h = 5: 32 replicas per pass at the default, one when n_h >= REPLICA_UNITS;
    # only vector 0 and the cell's coordinates, which come before the head's, take passes
    monkeypatch.setattr(gradcheck, "REPLICA_UNITS", replica_units)
    spec, cell, head, seqs, labels = sweep_setup(variant, activation)
    P, P_cell = cell.vec.size, cell.layout.fields["W_hy"][0].start
    R = max(1, replica_units // cell.n_h)
    assert R == 1 or (2 * P_cell + 1) % R != 0  # the last pass is a partial one

    widths = []
    monkeypatch.setattr(gradcheck, "forward_sequence",
                        lambda s, p, h, x, ws: widths.append(p.n_h) or forward_sequence(s, p, h, x, ws))
    losses, same = sweep_losses(spec, cell, seqs, labels, Workspace(), gradcheck._replica(cell))
    assert widths == [R * cell.n_h] * math.ceil((2 * P_cell + 1) / R)
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


@pytest.mark.parametrize("batch_size", CHECK_SIZES)
@pytest.mark.parametrize("variant, coordinate", [  # a cell coordinate, then the head's two arrays
    pytest.param(v, name, id=v.value if name == "W_c" else f"{v.value}-{name}")
    for name in ("W_c", "W_hy", "b_y") for v in Variant
])
def test_check_fails_on_one_corrupted_analytic_coordinate(variant, coordinate, batch_size, monkeypatch):
    real = gradcheck.batch_loss_and_grads

    def corrupted(*args):
        loss, grads, correct = real(*args)
        grads[coordinate][(1, 2)[: grads[coordinate].ndim]] += 1e-3
        return loss, grads, correct

    monkeypatch.setattr(gradcheck, "batch_loss_and_grads", corrupted)
    [result] = check_all(seeds=(0,), variants=(variant,), activations=("tanh",), batch_size=batch_size)
    assert result.max_rel_err > REL_TOL
    assert not result.passed


def check_with_one_small_gradient_scaled(variant, batch_size, monkeypatch, below, factor):
    """The check of the first of seeds 0-9 whose gradient has a coordinate with 1e-4 < |g| < ``below``,
    the smallest of them scaled by ``factor``."""
    real, scaled = gradcheck.batch_loss_and_grads, []

    def corrupted(*args):
        loss, grads, correct = real(*args)
        size = np.abs(grads.vec)
        small = np.flatnonzero((size > 1e-4) & (size < below))
        if small.size:
            j = small[np.argmin(size[small])]
            grads.vec[j] *= factor
            scaled.append(j)
        return loss, grads, correct

    monkeypatch.setattr(gradcheck, "batch_loss_and_grads", corrupted)
    for seed in range(10):
        [result] = check_all(seeds=(seed,), variants=(variant,), activations=("tanh",), batch_size=batch_size)
        if scaled:
            break
    assert len(scaled) == 1
    return result


@pytest.mark.parametrize("batch_size", CHECK_SIZES)
@pytest.mark.parametrize("variant", list(Variant))
def test_check_fails_on_a_small_gradient_off_by_half_a_percent(variant, batch_size, monkeypatch):
    # A coordinate with 1e-4 < |g| < 1e-3 is measured against its own size, so scaled by 1.005 it is off
    # by 5e-3, fifty times REL_TOL; measured against a floor of 1e-1 it would be off by less than 5e-5.
    # The smallest is taken, which a floor of 1e-2 would also hide when below 2e-4.
    result = check_with_one_small_gradient_scaled(variant, batch_size, monkeypatch, 1e-3, 1.005)
    assert result.max_rel_err > REL_TOL
    assert not result.passed


@pytest.mark.parametrize("batch_size", CHECK_SIZES)
@pytest.mark.parametrize("variant", list(Variant))
def test_check_fails_on_a_small_gradient_off_by_two_in_ten_thousand(variant, batch_size, monkeypatch):
    # Scaled by 1.0002, a coordinate with 1e-4 < |g| < 5e-4 is off by 2e-4 of itself, twice REL_TOL, and
    # the check's own error stays below 1e-6 there; against a floor of 1e-3 it would be off by under 1e-4.
    result = check_with_one_small_gradient_scaled(variant, batch_size, monkeypatch, 5e-4, 1.0002)
    assert result.max_rel_err > REL_TOL
    assert not result.passed


@pytest.mark.parametrize("batch_size", CHECK_SIZES)
@pytest.mark.parametrize("variant", list(Variant))
def test_sweep_is_bitwise_equal_with_cold_and_warm_replica_map(variant, batch_size):
    spec, cell, _, seqs, labels = sweep_setup(variant, "relu", batch_size=batch_size)
    gradcheck._replica_map.cache_clear()
    cold = sweep_losses(spec, cell, seqs, labels, Workspace(), gradcheck._replica(cell))
    assert gradcheck._replica_map.cache_info().misses == 1
    warm = sweep_losses(spec, cell, seqs, labels, Workspace(), gradcheck._replica(cell))
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


def test_check_all_builds_each_model_and_each_batch_once(monkeypatch):
    # the model depends on (variant, seed) and the batch on the seed: one variant x 3 activations x
    # seeds 0-2 is 9 configurations from 3 models and 3 batches
    inits, draws = [], []
    monkeypatch.setattr(gradcheck, "init_params", lambda *args: inits.append(args) or init_params(*args))
    monkeypatch.setattr(gradcheck, "stream", lambda seed, tag: draws.append((seed, tag)) or stream(seed, tag))
    assert len(check_all(seeds=(0, 1, 2), variants=(Variant.LSTM5,))) == 9
    assert [args[-1] for args in inits] == [0, 1, 2]
    assert draws == [(seed, TAG_GRADCHECK) for seed in (0, 1, 2)]


@pytest.mark.parametrize("batch_size", CHECK_SIZES)
@pytest.mark.parametrize("variant", list(Variant))
def test_check_all_builds_one_replica_cell_per_model_and_each_sweep_leaves_it_as_it_was(variant, batch_size, monkeypatch):
    # one variant x 3 activations x seeds 0-2: 3 replica cells, each run by the sweeps of 3 configurations
    built, replicate, sweeps, sweep = [], gradcheck._replica, [], gradcheck.sweep_losses
    monkeypatch.setattr(gradcheck, "_replica", lambda model: built.append(replicate(model)) or built[-1])

    def recorded(spec, params, seqs, labels, ws, replica):
        before = replica[0].vec.tobytes()
        out = sweep(spec, params, seqs, labels, ws, replica)
        sweeps.append((replica, replica[0].vec.tobytes() == before))
        return out

    monkeypatch.setattr(gradcheck, "sweep_losses", recorded)
    assert len(check_all(seeds=(0, 1, 2), variants=(variant,), batch_size=batch_size)) == 9
    assert len(built) == 3 and [id(r) for r, _ in sweeps] == [id(r) for r in built] * 3
    assert all(kept for _, kept in sweeps)


@pytest.mark.parametrize("batch_size", [1, 3])
def test_check_all_equals_single_checks_over_read_only_inputs(batch_size, monkeypatch):
    seeds = (0, 1, 2)
    single = [check_all(seeds=(s,), variants=(v,), activations=(a,), batch_size=batch_size)[0]
              for v in Variant for a in Activation for s in seeds]
    shared, check = [], gradcheck.check_gradients
    monkeypatch.setattr(gradcheck, "check_gradients",
                        lambda *args: shared.append(args[2:4]) or check(*args))  # (spec, seed, model, batch, ...)
    results = check_all(seeds=seeds, batch_size=batch_size)
    assert [r.max_rel_err.hex() for r in results] == [r.max_rel_err.hex() for r in single]
    assert results == single
    models, batches = {id(m): m for m, _ in shared}.values(), {id(b): b for _, b in shared}.values()
    assert (len(models), len(batches)) == (len(Variant) * len(seeds), len(seeds))
    arrays = [a for m in models for a in (m.vec, *m.values(), *m.stacks.values())]
    arrays += [a for b in batches for a in (b.inputs, b.labels)]
    assert not any(a.flags.writeable for a in arrays)


def test_interleaved_checks_match_fresh_ones():
    # a check must not see the vector or trace of one at another layout, nor what a kept plan last held:
    # all 21 configurations, their models' and replica cells' layouts interleaved on one workspace,
    # the second time round with every float of its buffer NaN before each check
    configs = [(v, a, 3, 5, 4) for v in Variant for a in Activation]
    configs.insert(1, (Variant.LSTM6, Activation.RELU, 2, 7, 3))
    fresh = []
    for v, a, n_in, n_h, n_out in configs:
        gradcheck._replica_map.cache_clear()
        fresh += check_all(seeds=(0,), variants=(v,), activations=(a,), n_in=n_in, n_h=n_h, n_out=n_out, batch_size=3)

    def check(v, a, n_in, n_h, n_out, ws):  # what check_all builds for seed 0 at T = 4 and B = 3, checked on ws
        spec = VariantSpec.make(v, a)
        model = gradcheck._model(spec, n_in, n_h, n_out, 0)
        return check_gradients(spec, 0, model, gradcheck._batch(0, n_in, n_out, 4, 3), gradcheck._replica(model), ws)

    ws = Workspace()
    assert [check(*config, ws) for config in configs] == fresh
    buf, again = ws._buf, []
    for config in configs:
        buf.fill(np.nan)
        again.append(check(*config, ws))
    assert ws._buf is buf and again == fresh
    assert all(r.passed for r in fresh)


def test_cached_replica_map_is_read_only():
    replica, where, coord, passes, head = gradcheck._replica_map(Variant.LSTM, 3, 5, 4, 32)
    assert replica.n_h == 32 * 5 and where.shape == (32, layout("lstm", 3, 5, 4).size)
    cached = [where, coord, *(a for one_pass in passes for a in one_pass), *head]
    assert len(cached) == 2 + 4 * len(passes) + 2 and not any(a.flags.writeable for a in cached)
    with pytest.raises(ValueError):
        where[0, 0] = 0


def test_replica_map_is_cached_per_replica_count(monkeypatch):
    spec, cell, _, seqs, labels = sweep_setup("lstm6", "tanh")
    gradcheck._replica_map.cache_clear()
    sweep_losses(spec, cell, seqs, labels, Workspace(), gradcheck._replica(cell))
    monkeypatch.setattr(gradcheck, "REPLICA_UNITS", 5)
    sweep_losses(spec, cell, seqs, labels, Workspace(), gradcheck._replica(cell))
    sweep_losses(spec, cell, seqs, labels, Workspace(), gradcheck._replica(cell))
    info = gradcheck._replica_map.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 1)


@pytest.mark.parametrize("shift, message", [
    (-1, "lstm: coordinate 4 is covered by 2 named arrays, not 1"),  # U's last column, read by W too
    (1, "lstm: coordinate 5 is covered by 0 named arrays, not 1"),  # W's first column, read by nothing
])
def test_replica_map_rejects_named_arrays_that_overlap_or_leave_a_gap(shift, message, monkeypatch):
    # every W view of a fresh lstm layout shifted by one column of its dense stack's [U | W | b] rows;
    # the cached layout("lstm", 3, 5, 4) that other tests read is left as it is
    lay = Layout("lstm", 3, 5, 4)
    for name in ("W_i", "W_f", "W_o", "W_c"):
        at, shape, (rows, cols) = lay.fields[name]
        lay.fields[name] = (at, shape, (rows, slice(cols.start + shift, cols.stop + shift)))
    monkeypatch.setattr(gradcheck, "layout", lambda *dims: lay if dims == ("lstm", 3, 5, 4) else layout(*dims))
    gradcheck._replica_map.cache_clear()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            gradcheck._replica_map(Variant.LSTM, 3, 5, 4, 32)
    finally:
        gradcheck._replica_map.cache_clear()
