"""Property-based sweeps over the engine's shapes and the IDX reader's.

Every property draws from the whole range it names, with no filter, and
runs derandomized with a fixed number of examples and no example
database, so a run never passes or fails by chance.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slimrnn import bptt
from slimrnn.bptt import Workspace, backward_sequence, batch_loss_and_grads, forward_sequence, softmax_xent
from slimrnn.cells import ACTIVATIONS, Activation, Variant, VariantSpec, init_params
from slimrnn.data import Split, batches, read_idx_images
from slimrnn.gradcheck import EPS, sweep_losses

from .conftest import check_one, seeded_batch, write_idx_images

SWEEP = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@SWEEP
@given(
    variant=st.sampled_from(list(Variant)),
    activation=st.sampled_from(list(Activation)),
    n_in=st.integers(1, 4),
    n_h=st.integers(1, 7),
    n_out=st.integers(2, 5),
    T=st.integers(1, 5),
    B=st.integers(1, 4),
)
def test_workspace_takes_what_carved_lists_and_reuse_is_bitwise_neutral(variant, activation, n_in, n_h, n_out, T, B):
    spec = VariantSpec.make(variant, activation)
    p, _ = init_params(spec, n_in, n_h, n_out, seed=T * B)
    batch = seeded_batch([n_in, n_h, n_out, T, B], B, T, n_in, n_out)
    plan = bptt._carved(p.layout, T, B)

    ws = Workspace()
    logits, trace = forward_sequence(spec, p, p, np.swapaxes(batch.inputs, 0, 1), ws)
    assert len(ws._buf) == sum(map(math.prod, plan.values()))
    assert trace is ws.carve(p.layout, T, B)
    _, dlogits = softmax_xent(logits, batch.labels)
    once = backward_sequence(trace, dlogits)

    # the backward's arrays, carved last, and sig_c, NaN-filled: a second walk back reads none of them before writing them
    buf = ws._buf
    names = list(plan)
    buf[sum(math.prod(plan[name]) for name in names[: names.index("deltas")]) :].fill(np.nan)
    if trace.sig_c is not None:
        trace.sig_c.fill(np.nan)
    twice = backward_sequence(trace, dlogits)
    assert ws._buf is buf and twice.vec.tobytes() == once.vec.tobytes()

    fresh = batch_loss_and_grads(spec, p, p, batch)
    buf.fill(np.nan)
    loss, grads, correct = batch_loss_and_grads(spec, p, p, batch, ws)
    assert ws._buf is buf
    assert (loss, correct) == (fresh[0], fresh[2]) and grads.vec.tobytes() == fresh[1].vec.tobytes()


# every float64 class: zeros of both signs, subnormals, normals, infinities and NaN
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=20))
def test_relu_value_is_positive_exactly_where_its_pre_activation_is(xs):
    # the trace keeps only relu's value, and relu' is read from it
    x = np.array(xs + [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan])
    value = np.maximum(x, 0.0)
    assert np.array_equal(value > 0.0, x > 0.0)
    relu, relu_derivative = ACTIVATIONS[Activation.RELU]
    assert np.array_equal(relu_derivative(relu(x), out=np.empty_like(x)), x > 0.0)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    activation=st.sampled_from(list(Activation)),
    n_in=st.integers(1, 4),
    n_h=st.integers(1, 7),
    n_out=st.integers(2, 5),
    T=st.integers(1, 5),
    B=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_gradient_check_passes_at_any_shape(variant, activation, n_in, n_h, n_out, T, B, seed):
    # the analytic pass and the sweep carve one layout at two widths in turn from one workspace
    result = check_one(variant, activation, seeds=(seed,), n_in=n_in, n_h=n_h, n_out=n_out, T=T, batch_size=B)
    assert result.passed, result


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    activation=st.sampled_from(list(Activation)),
    n_in=st.integers(1, 4),
    n_h=st.integers(1, 7),
    n_out=st.integers(2, 5),
    T=st.integers(1, 5),
    B=st.integers(1, 4),
)
def test_sweep_head_vectors_match_standalone_forward(variant, activation, n_in, n_h, n_out, T, B):
    # the head's vectors take no forward pass: each moves one of vector 0's logits
    spec = VariantSpec.make(variant, activation)
    p, _ = init_params(spec, n_in, n_h, n_out, seed=n_h * T + B)
    rng = np.random.default_rng([n_in, n_h, n_out, T, B])
    seqs, labels = rng.uniform(0.0, 1.0, size=(T, B, n_in)), rng.integers(0, n_out, size=B)
    losses, same = sweep_losses(spec, p, seqs, labels, Workspace())
    cell = p.layout.fields["W_hy"][0].start  # the head's coordinates come last
    assert same[2 * cell + 1 :].all()
    for k in [0, *range(2 * cell + 1, 2 * p.vec.size + 1)]:
        moved = p.with_arrays(p)
        if k:
            moved.vec[(k - 1) // 2] += EPS if k % 2 else -EPS
        logits, _ = forward_sequence(spec, moved, moved, seqs)
        want = softmax_xent(logits, labels)[0].sum() / B
        assert abs(losses[k] - want) <= 1e-12 * abs(want), k


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    count=st.integers(0, 40),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    limit=st.none() | st.integers(0, 50),
    gz=st.booleans(),
    batch_size=st.integers(1, 8),
)
def test_idx_images_round_trip_under_any_limit_and_batch_as_scaled_pixels(
    tmp_path_factory, count, rows, cols, limit, gz, batch_size
):
    images = np.random.default_rng([count, rows, cols]).integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
    path = tmp_path_factory.getbasetemp() / ("idx_round_trip" + (".gz" if gz else ""))
    write_idx_images(path, images)
    back, claimed = read_idx_images(path, limit)
    kept = images[: count if limit is None else min(limit, count)]
    assert claimed == count
    assert back.dtype == np.uint8 and back.shape == kept.shape and back.tobytes() == kept.tobytes()

    # labels tag each example, so the batches' labels spell out the epoch's permutation
    got = batches(Split(sequences=back, labels=np.arange(len(back))), batch_size, seed=count, epoch=rows)
    perm = np.array([i for b in got for i in b.labels], dtype=np.int64)
    inputs = np.concatenate([np.zeros((0, rows, cols))] + [b.inputs for b in got])
    assert sorted(perm) == list(range(len(kept)))
    assert inputs.tobytes() == (kept[perm].astype(np.float64) / 255).tobytes()
