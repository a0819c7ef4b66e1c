"""The central-difference check: its batched sweep and its cached map, its counts, and that it catches a wrong gradient."""

import itertools
import math

import numpy as np
import pytest

from slimrnn import bptt, gradcheck
from slimrnn.bptt import Workspace, forward_sequence, softmax_xent
from slimrnn.cells import Activation, Layout, Variant, VariantSpec, init_params, layout
from slimrnn.gradcheck import EPS, REL_TOL, check_all, check_gradients, relu_pattern, sweep_losses
from slimrnn.rng import TAG_GRADCHECK, stream

from .conftest import check_one
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
    for r in (r for r in check_all(seeds=SEEDS, batch_size=batch_size, **DIMS) if r.activation is Activation.RELU):
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


def standalone(spec, cell, seqs, labels, k):
    """Vector k's mean loss and relu pattern from a forward pass of its own, coordinate (k-1)//2 moved for k > 0."""
    p = cell.with_arrays(cell)  # a copy
    if k:
        p.vec[(k - 1) // 2] += EPS if k % 2 else -EPS
    logits, trace = forward_sequence(spec, p, p, seqs)
    xent, _ = softmax_xent(logits, labels)
    return xent.sum() / len(labels), relu_pattern(trace)


def floats(plan) -> int:
    """The floats a memory plan of ``bptt._carved`` carves."""
    return sum(map(math.prod, plan.values()))


def recorded_widths(monkeypatch) -> list[int]:
    """The batch width of every ``forward_sequence`` call gradcheck makes from now on."""
    widths = []
    monkeypatch.setattr(gradcheck, "forward_sequence",
                        lambda s, p, h, x, ws, **kw: widths.append(x.shape[1]) or forward_sequence(s, p, h, x, ws, **kw))
    return widths


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("variant", list(Variant))
def test_sweep_losses_match_standalone_forward(variant, activation, batch_size, monkeypatch):
    # vector 0 and every cell coordinate's two vectors run as columns of one pass; each loss is that of the
    # model with the coordinate itself moved, and each relu flag that of its own pattern against vector 0's
    spec, cell, head, seqs, labels = sweep_setup(variant, activation, batch_size=batch_size)
    P, P_cell = cell.vec.size, cell.layout.fields["W_hy"][0].start
    widths = recorded_widths(monkeypatch)
    losses, same = sweep_losses(spec, cell, seqs, labels, Workspace())
    assert widths == [(2 * P_cell + 1) * batch_size]
    assert losses.shape == same.shape == (2 * P + 1,)

    _, base_pattern = standalone(spec, cell, seqs, labels, 0)
    for k in range(2 * P + 1):
        want, pattern = standalone(spec, cell, seqs, labels, k)
        assert abs(losses[k] - want) <= 1e-12 * abs(want), k
        assert same[k] == (pattern is None or np.array_equal(pattern, base_pattern)), k


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("variant", list(Variant))
def test_a_sweep_in_several_passes_matches_the_one_pass_sweep(variant, batch_size, monkeypatch):
    # a budget just under 9 vectors' plans: passes of 8 vectors and a partial last one, vector 0 only in the first
    spec, cell, _, seqs, labels = sweep_setup(variant, "relu", batch_size=batch_size)
    one_pass = sweep_losses(spec, cell, seqs, labels, Workspace())
    n_cell = 2 * cell.layout.fields["W_hy"][0].start + 1
    assert n_cell % 8
    per_column = floats(bptt._carved(cell.layout, len(seqs), 1))
    monkeypatch.setattr(gradcheck, "PASS_FLOATS", 9 * batch_size * per_column - 1)
    widths = recorded_widths(monkeypatch)
    losses, same = sweep_losses(spec, cell, seqs, labels, Workspace())
    assert widths == [8 * batch_size] * (n_cell // 8) + [n_cell % 8 * batch_size]
    assert np.allclose(losses, one_pass[0], rtol=1e-12, atol=0.0)
    assert np.array_equal(same, one_pass[1])


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
    result = check_one(variant, "tanh", seeds=(0,), batch_size=batch_size)
    assert result.max_rel_err > REL_TOL
    assert not result.passed


def check_with_one_small_gradient_scaled(variant, batch_size, monkeypatch, below, factor):
    """The tanh check of the first of seeds 0-9 whose gradient has a coordinate with 1e-4 < |g| < ``below``,
    the smallest of them scaled by ``factor``."""
    real, scaled = gradcheck.batch_loss_and_grads, []

    def corrupted(spec, *args):
        loss, grads, correct = real(spec, *args)
        size = np.abs(grads.vec)
        small = np.flatnonzero((size > 1e-4) & (size < below))
        if small.size and spec.activation is Activation.TANH:
            j = small[np.argmin(size[small])]
            grads.vec[j] *= factor
            scaled.append(j)
        return loss, grads, correct

    monkeypatch.setattr(gradcheck, "batch_loss_and_grads", corrupted)
    for seed in range(10):
        result = check_one(variant, "tanh", seeds=(seed,), batch_size=batch_size)
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
def test_sweep_is_bitwise_equal_with_cold_and_warm_sweep_map(variant, batch_size):
    spec, cell, _, seqs, labels = sweep_setup(variant, "relu", batch_size=batch_size)
    gradcheck._sweep_map.cache_clear()
    cold = sweep_losses(spec, cell, seqs, labels, Workspace())
    assert gradcheck._sweep_map.cache_info().misses == 1
    warm = sweep_losses(spec, cell, seqs, labels, Workspace())
    assert gradcheck._sweep_map.cache_info().hits == 1
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


@pytest.mark.parametrize("variants, seeds", [(("lstm6", "srn", "lstm"), (2, 0)), (tuple(Variant), (1,))])
def test_check_all_returns_each_configuration_once_in_matrix_order(variants, seeds):
    # variants x activations x seeds, each in the order given (Activation's for the activations)
    results = check_all(seeds=seeds, variants=variants, n_h=2, T=2)
    assert [(r.variant, r.activation, r.seed) for r in results] == list(itertools.product(variants, Activation, seeds))


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
def test_check_all_sweeps_each_configuration_in_one_pass_of_its_model(variant, batch_size, monkeypatch):
    # one variant x 3 activations x seeds 0-2: per configuration one sweep pass over every vector that takes
    # one, run by the configuration's read-only model itself, 3 models in all
    calls = []
    monkeypatch.setattr(gradcheck, "forward_sequence",
                        lambda s, p, h, x, ws, **kw: calls.append((p, h, x.shape[1])) or forward_sequence(s, p, h, x, ws, **kw))
    assert len(check_all(seeds=(0, 1, 2), variants=(variant,), batch_size=batch_size)) == 9
    n_cell = 2 * layout(variant, 3, 5, 4).fields["W_hy"][0].start + 1
    assert [(p is h, p.vec.flags.writeable, width) for p, h, width in calls] == [(True, False, n_cell * batch_size)] * 9
    assert len({id(p) for p, _, _ in calls}) == 3


@pytest.mark.parametrize("batch_size", [1, 3])
def test_check_all_equals_single_checks_over_read_only_inputs(batch_size, monkeypatch):
    seeds = (0, 1, 2)
    alone = {(v, s): check_all(seeds=(s,), variants=(v,), batch_size=batch_size) for v in Variant for s in seeds}
    single = [r for v in Variant for a in Activation for s in seeds for r in alone[v, s] if r.activation is a]
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
    # all 21 configurations, their models' layouts at the analytic and the sweep's widths interleaved on one workspace,
    # the second time round with every float of its buffer NaN before each check
    configs = [(v, a, 3, 5, 4) for v in Variant for a in Activation]
    configs.insert(1, (Variant.LSTM6, Activation.RELU, 2, 7, 3))
    fresh = []
    for v, a, n_in, n_h, n_out in configs:
        gradcheck._sweep_map.cache_clear()
        fresh.append(check_one(v, a, seeds=(0,), n_in=n_in, n_h=n_h, n_out=n_out, batch_size=3))

    def check(v, a, n_in, n_h, n_out, ws):  # what check_all builds for seed 0 at T = 4 and B = 3, checked on ws
        spec = VariantSpec.make(v, a)
        model = gradcheck._model(spec, n_in, n_h, n_out, 0)
        return check_gradients(spec, 0, model, gradcheck._batch(0, n_in, n_out, 4, 3), ws)

    ws = Workspace()
    assert [check(*config, ws) for config in configs] == fresh
    buf, again = ws._buf, []
    for config in configs:
        buf.fill(np.nan)
        again.append(check(*config, ws))
    assert ws._buf is buf and again == fresh
    assert all(r.passed for r in fresh)


def test_cached_sweep_map_is_read_only():
    lay = layout("lstm", 3, 5, 4)
    row, oprow, head = gradcheck._sweep_map(lay)
    assert row.shape == oprow.shape == (lay.fields["W_hy"][0].start,) and len(head) == 2
    assert not any(a.flags.writeable for a in (row, oprow, *head))
    with pytest.raises(ValueError):
        row[0] = 0


@pytest.mark.parametrize("variant", list(Variant))
def test_sweep_map_names_the_row_and_operand_row_each_coordinate_joins(variant):
    # u entry k joins row k by h row k mod n_h; a point-wise b entry k row bias_from + k by the operand's bias
    # row; a dense-stack entry (r, c) row dense_from + r by operand row c
    lay = layout(variant, 3, 5, 4)
    want = []
    for kind, (_, shape) in lay.stacks.items():  # the cell's coordinates, in vector order
        for k, *c in np.ndindex(shape):
            want.append({"u": (k, k % lay.n_h), "b": (lay.bias_from + k, lay.n_h + lay.n_in), "dense": (lay.dense_from + k, *c)}[kind])
    row, oprow, _ = gradcheck._sweep_map(lay)
    assert list(zip(row.tolist(), oprow.tolist())) == want


def test_sweep_map_is_cached_per_layout(monkeypatch):
    # one map serves every batch size and pass budget of a layout; another layout builds its own
    spec, cell, _, seqs, labels = sweep_setup("lstm6", "tanh")
    gradcheck._sweep_map.cache_clear()
    sweep_losses(spec, cell, seqs, labels, Workspace())
    sweep_losses(spec, cell, seqs[:, :1], labels[:1], Workspace())
    monkeypatch.setattr(gradcheck, "PASS_FLOATS", 1)
    sweep_losses(spec, cell, seqs, labels, Workspace())
    spec, cell, _, seqs, labels = sweep_setup("lstm6", "tanh", n_h=4)
    sweep_losses(spec, cell, seqs, labels, Workspace())
    info = gradcheck._sweep_map.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 2)


@pytest.mark.parametrize("variant", list(Variant))
def test_a_sweep_pass_fits_its_budget(variant):
    # the budget is below lstm's training plan at the paper's shapes; at check_all's default shapes every
    # configuration is one pass, and at n_h = 100 a pass fits the budget (its plan is only computed)
    assert gradcheck.PASS_FLOATS <= floats(bptt._carved(layout("lstm", 28, 100, 10), 28, 32))
    for B in CHECK_SIZES:
        spec, cell, _, seqs, labels = sweep_setup(variant, "tanh", batch_size=B)
        ws = Workspace()
        sweep_losses(spec, cell, seqs, labels, ws)
        n_cell = 2 * cell.layout.fields["W_hy"][0].start + 1
        assert gradcheck._vectors_per_pass(cell.layout, 4, B) >= n_cell
        assert len(ws._buf) == floats(bptt._carved(cell.layout, 4, n_cell * B)) <= gradcheck.PASS_FLOATS
        large = layout(variant, 3, 100, 4)
        per_pass = gradcheck._vectors_per_pass(large, 4, B)
        assert 1 <= per_pass < 2 * large.fields["W_hy"][0].start + 1
        assert floats(bptt._carved(large, 4, per_pass * B)) <= gradcheck.PASS_FLOATS


@pytest.mark.parametrize("shift, message", [
    (-1, "lstm: coordinate 4 is covered by 2 named arrays, not 1"),  # U's last column, read by W too
    (1, "lstm: coordinate 5 is covered by 0 named arrays, not 1"),  # W's first column, read by nothing
])
def test_sweep_map_rejects_named_arrays_that_overlap_or_leave_a_gap(shift, message):
    # every W view of a fresh lstm layout shifted by one column of its dense stack's [U | W | b] rows;
    # the cached layout("lstm", 3, 5, 4) that other tests read is left as it is
    lay = Layout("lstm", 3, 5, 4)
    for name in ("W_i", "W_f", "W_o", "W_c"):
        at, shape, (rows, cols) = lay.fields[name]
        lay.fields[name] = (at, shape, (rows, slice(cols.start + shift, cols.stop + shift)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        gradcheck._sweep_map(lay)
