import itertools
import json
import math

import numpy as np
import pytest

from slimrnn import bptt
from slimrnn.bptt import Workspace, backward_sequence, batch_loss_and_grads, forward_sequence, softmax_xent
from slimrnn.cells import Activation, Variant, VariantSpec, init_params, layout
from slimrnn.data import SequenceBatch, Split
from slimrnn.gradcheck import check_gradients
from slimrnn.harness import evaluate
from slimrnn.rng import TAG_GRADCHECK, stream

from .conftest import traced_peak_mb
from .fixtures import freeze_batch_digests as digests
from .fixtures import freeze_paper_digests as paper
from .fixtures.freeze_batch_grads import BATCH_SIZES, N_H, N_IN, N_OUT, OUT, fixed_batch
from .test_cells import zeroed_params

ALL_VARIANTS = list(Variant)
ALL_ACTIVATIONS = list(Activation)
with np.load(OUT) as frozen:
    FROZEN = dict(frozen)
FROZEN_DIGESTS = json.loads(digests.OUT.read_text())


def floats(plan) -> int:
    """The float64 count of a memory plan's arrays."""
    return sum(map(math.prod, plan.values()))


def rel_err(got, want) -> float:
    """Largest deviation relative to the largest magnitude of ``want``."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def random_setup(variant, activation, n_in=3, n_h=5, n_out=4, T=4, seed=0):
    spec = VariantSpec.make(variant, activation)
    cell, head = init_params(spec, n_in, n_h, n_out, seed)
    rng = stream(seed, TAG_GRADCHECK)
    seq = rng.uniform(0.0, 1.0, size=(T, n_in))
    label = int(rng.integers(0, n_out))
    return spec, cell, head, seq, label


def test_forward_zero_params_gives_bias_logits():
    spec, cell, head = zeroed_params("lstm", "tanh", 3, 4, 2)
    head["b_y"] = [0.5, -1.5]
    logits, trace = forward_sequence(spec, cell, head, np.zeros((1, 3)))
    assert np.array_equal(logits, [0.5, -1.5])
    assert len(trace.pre) == 1


def test_forward_scalar_chain_lstm6_two_steps():
    spec, cell, head = zeroed_params("lstm6", "tanh", 1, 1, 1)
    cell["b_c"] = 0.5
    head["W_hy"] = 1.0
    logits, trace = forward_sequence(spec, cell, head, np.zeros((2, 1)))
    # independently computed: c2 = 0.59*tanh(0.5) + tanh(0.5), h2 = tanh(c2)
    assert trace.c[2, 0, 0] == pytest.approx(0.7347662800434155, abs=1e-12)
    assert logits[0] == pytest.approx(0.6259726541420974, abs=1e-12)


def test_forward_cache_length_matches_sequence():
    spec, cell, head, seq, _ = random_setup("lstm5", "sigmoid", T=7)
    _, trace = forward_sequence(spec, cell, head, seq)
    steps = list(trace)
    assert len(steps) == 7
    assert np.array_equal(steps[-1].c, trace.c[7]) and np.array_equal(steps[-1].a_c, trace.pre[6, -5:])


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_trace_keeps_the_candidate_pre_activations_and_values(variant):
    # gate values overwrite their pre-activations; the candidate block keeps
    # both, the pre-activations in pre (read by relu's derivative and by
    # iteration) and the values in act
    spec = VariantSpec.make(variant, "relu")
    p, _ = init_params(spec, 3, 5, 4, seed=0)
    x = stream(1, TAG_GRADCHECK).uniform(-1.0, 1.0, size=(4, 3, 3))
    _, trace = forward_sequence(spec, p, p, x)
    assert trace.act.shape == (4, 5, 3)
    for t, step in enumerate(trace):
        want = p["W_c"] @ x[t].T + p["U_c"] @ trace.h[t] + p["b_c"][:, None]
        assert np.allclose(step.a_c, want, rtol=0.0, atol=1e-12) and (step.a_c < 0.0).any()
        assert np.array_equal(trace.act[t], np.maximum(step.a_c, 0.0))


def test_forward_accepts_list_of_vectors():
    spec, cell, head, seq, _ = random_setup("lstm4", "tanh")
    from_array, _ = forward_sequence(spec, cell, head, seq)
    from_list, _ = forward_sequence(spec, cell, head, [row for row in seq])
    assert np.array_equal(from_array, from_list)


def test_forward_rejects_empty_sequence():
    spec, cell, head, _, _ = random_setup("lstm", "tanh")
    with pytest.raises(ValueError):
        forward_sequence(spec, cell, head, np.zeros((0, 3)))


def test_softmax_xent_uniform():
    loss, dlogits = softmax_xent(np.zeros(2), 0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(dlogits, [-0.5, 0.5], atol=1e-15)


def test_softmax_xent_saturated_is_stable():
    loss, _ = softmax_xent(np.array([1000.0, 0.0]), 0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert math.isfinite(loss)


def test_softmax_xent_hand_value():
    loss, _ = softmax_xent(np.array([1.0, 2.0, 3.0]), 2)
    assert loss == pytest.approx(0.4076059644443806, abs=1e-12)


def test_softmax_xent_rejects_bad_label():
    with pytest.raises(ValueError):
        softmax_xent(np.zeros(3), 3)
    with pytest.raises(ValueError):
        softmax_xent(np.zeros(3), -1)


def test_softmax_xent_gradient_sums_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.uniform(-50, 50, size=6)
        loss, dlogits = softmax_xent(logits, int(rng.integers(0, 6)))
        assert loss >= 0.0
        assert abs(float(dlogits.sum())) < 1e-12


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_backward_zero_cotangent_gives_zero_grads(variant):
    spec, cell, head, seq, _ = random_setup(variant, "tanh")
    _, caches = forward_sequence(spec, cell, head, seq)
    grads = backward_sequence(caches, np.zeros(4))
    for name, g in grads.items():
        assert not np.any(g), name


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_backward_gradient_keys_mirror_parameters(variant):
    spec, cell, head, seq, label = random_setup(variant, "sigmoid")
    logits, caches = forward_sequence(spec, cell, head, seq)
    _, dlogits = softmax_xent(logits, label)
    grads = backward_sequence(caches, dlogits)
    params = {**cell.arrays(), **head.arrays()}
    assert list(grads) == list(params)
    assert grads.vec.size == cell.vec.size
    for name, g in grads.items():
        assert g.shape == params[name].shape
        assert np.shares_memory(g, grads.vec)


@pytest.mark.parametrize("variant", ["lstm", "lstm4a", "srn"])
def test_backward_is_linear_in_cotangent(variant):
    spec, cell, head, seq, label = random_setup(variant, "tanh")
    logits, caches = forward_sequence(spec, cell, head, seq)
    _, dlogits = softmax_xent(logits, label)
    once = backward_sequence(caches, dlogits)
    twice = backward_sequence(caches, 2.0 * dlogits)
    for name in once:
        assert np.array_equal(2.0 * once[name], twice[name]), name


def test_backward_rejects_mismatched_caches():
    spec, cell, head, seq, _ = random_setup("lstm", "tanh")
    _, caches = forward_sequence(spec, cell, head, seq)
    with pytest.raises(ValueError, match="dlogits shape"):
        backward_sequence(caches, np.zeros(7))


# A fast spot-check; the full matrix runs in the acceptance suite.
@pytest.mark.parametrize(
    "variant,activation",
    [("lstm", "tanh"), ("lstm4", "sigmoid"), ("lstm4a", "relu"), ("srn", "relu")],
)
def test_gradients_match_finite_differences(variant, activation):
    result = check_gradients(variant, activation, seed=0, ws=Workspace())
    assert result.compared > 0
    assert result.max_rel_err < 1e-4


def batch_of(seq_label_pairs):
    seqs = np.stack([s for s, _ in seq_label_pairs])
    labels = np.array([l for _, l in seq_label_pairs])
    return SequenceBatch(inputs=seqs, labels=labels)


def test_batch_of_one_equals_single_example():
    spec, cell, head, seq, label = random_setup("lstm5a", "tanh")
    loss, grads, correct = batch_loss_and_grads(spec, cell, head, batch_of([(seq, label)]))
    logits, caches = forward_sequence(spec, cell, head, seq)
    ref_loss, dlogits = softmax_xent(logits, label)
    ref = backward_sequence(caches, dlogits)
    assert loss == ref_loss
    for name in ref:
        assert np.array_equal(grads[name], ref[name])
    assert correct in (0, 1)


# The batch engine sums over examples in a different order than a loop over
# single examples would, so batch-level identities hold to rounding only.
def test_batch_duplicate_example_keeps_mean():
    spec, cell, head, seq, label = random_setup("lstm4", "sigmoid")
    once_loss, once, _ = batch_loss_and_grads(spec, cell, head, batch_of([(seq, label)]))
    twice_loss, twice, _ = batch_loss_and_grads(spec, cell, head, batch_of([(seq, label)] * 2))
    assert rel_err(twice_loss, once_loss) <= 1e-12
    for name in once:
        assert rel_err(twice[name], once[name]) <= 1e-12, name


def test_batch_mean_is_hand_average():
    spec, cell, head, seq_a, label_a = random_setup("lstm", "tanh", seed=0)
    rng = stream(99, TAG_GRADCHECK)
    seq_b = rng.uniform(0, 1, size=seq_a.shape)
    label_b = 2
    loss, grads, _ = batch_loss_and_grads(
        spec, cell, head, batch_of([(seq_a, label_a), (seq_b, label_b)])
    )
    parts = []
    losses = []
    for seq, label in [(seq_a, label_a), (seq_b, label_b)]:
        logits, caches = forward_sequence(spec, cell, head, seq)
        l, dlogits = softmax_xent(logits, label)
        losses.append(l)
        parts.append(backward_sequence(caches, dlogits))
    assert rel_err(loss, (losses[0] + losses[1]) / 2) <= 1e-12
    for name in grads:
        assert rel_err(grads[name], (parts[0][name] + parts[1][name]) / 2) <= 1e-12, name


@pytest.mark.parametrize("activation", ALL_ACTIVATIONS)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_batch_matches_frozen_per_example_engine(variant, activation):
    # fixtures/batch_grads.npz holds what the per-example engine returned
    spec = VariantSpec.make(variant, activation)
    for size in BATCH_SIZES:
        cell, head = init_params(spec, N_IN, N_H, N_OUT, seed=size)
        loss, grads, correct = batch_loss_and_grads(spec, cell, head, fixed_batch(size))
        want = FROZEN[f"{spec.variant.value}/{spec.activation.value}/{size}"]
        assert rel_err(loss, want[0]) <= 1e-12, size
        assert correct == want[1], size
        assert sum(g.size for g in grads.values()) == want.size - 2, size
        pos = 0
        for name, g in grads.items():
            assert rel_err(g.ravel(), want[2 + pos : 2 + pos + g.size]) <= 1e-12, (size, name)
            pos += g.size


@pytest.mark.parametrize("activation", ALL_ACTIVATIONS)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_batch_gradients_match_finite_differences(variant, activation):
    # gradcheck's bound, eps and relu kink rule, on a mean over three sequences
    result = check_gradients(variant, activation, seed=0, batch_size=3, ws=Workspace())
    assert result.compared > 0
    assert result.max_rel_err < 1e-4


def test_batch_correct_count_ties_to_lowest_class():
    # zero parameters force all-equal logits; argmax resolves to class 0
    spec, cell, head = zeroed_params("lstm6", "tanh", 3, 4, 3)
    seqs = np.zeros((2, 2, 3))
    _, _, correct = batch_loss_and_grads(
        spec, cell, head, SequenceBatch(inputs=seqs, labels=np.array([0, 1]))
    )
    assert correct == 1


def test_empty_batch_is_rejected_at_construction():
    with pytest.raises(ValueError):
        SequenceBatch(inputs=np.zeros((0, 2, 3)), labels=np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_trace_owns_its_input(variant):
    # a C-contiguous time-major batch is copied too, so the caller may
    # overwrite its array between the forward and the backward pass
    spec, cell, head, _, _ = random_setup(variant, "tanh")
    x = stream(1, TAG_GRADCHECK).uniform(0.0, 1.0, size=(4, 3, 3))
    logits, trace = forward_sequence(spec, cell, head, x)
    assert not np.shares_memory(trace.x, x)
    _, dlogits = softmax_xent(logits, np.array([0, 1, 3]))
    want = backward_sequence(trace, dlogits).vec
    x[...] = 0.0
    assert np.array_equal(backward_sequence(trace, dlogits).vec, want)


@pytest.mark.parametrize("activation", ALL_ACTIVATIONS)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_workspace_reuse_is_bitwise_neutral(variant, activation):
    # A workspace sized by a larger batch and then filled with NaN must give
    # what fresh arrays give, bit for bit: an array the engine reads before
    # writing shows up as NaN. Both must match the bits frozen from the
    # engine before it took a workspace (fixtures/batch_digests.json).
    spec = VariantSpec.make(variant, activation)
    p = digests.digest_params(spec)
    ws = Workspace()
    batch_loss_and_grads(spec, p, p, digests.digest_batch(32), ws)  # room for an evaluation chunk too
    for size in digests.BATCH_SIZES:
        batch = digests.digest_batch(size)
        fresh = batch_loss_and_grads(spec, p, p, batch)
        ws._buf.fill(np.nan)
        loss, grads, correct = batch_loss_and_grads(spec, p, p, batch, ws)
        assert not np.isnan(ws._buf).all(), "the call did not use the workspace"
        assert (loss, correct) == (fresh[0], fresh[2]) and np.array_equal(grads.vec, fresh[1].vec), size
        assert digests.digest(*fresh) == FROZEN_DIGESTS[f"{spec.variant.value}/{spec.activation.value}/{size}"]

    batch = digests.digest_batch(40)  # two evaluation chunks, the second one short
    split = Split(sequences=np.rint(batch.inputs * 255).astype(np.uint8), labels=batch.labels)
    buf = ws._buf
    buf.fill(np.nan)
    assert evaluate(spec, p, split, ws) == evaluate(spec, p, split, Workspace())
    assert ws._buf is buf, "evaluation grew the workspace, so it never read the NaN-filled buffer"


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_workspace_batch_allocates_under_2mb(variant):
    # At the paper's shapes a reused workspace leaves the returned gradients,
    # logits and per-step temporaries; with fresh arrays a batch allocates
    # 4.7 MB (srn) to 18.7 MB (lstm).
    spec = VariantSpec.make(variant, "tanh")
    p, _ = init_params(spec, 28, 100, 10, seed=0)
    rng = np.random.default_rng(1)
    batch = SequenceBatch(inputs=rng.uniform(0.0, 1.0, size=(32, 28, 28)), labels=rng.integers(0, 10, size=32))
    ws = Workspace()
    batch_loss_and_grads(spec, p, p, batch, ws)
    assert traced_peak_mb(lambda: batch_loss_and_grads(spec, p, p, batch, ws)) <= 2.0


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_batch_without_a_workspace_allocates_one_buffer(variant):
    # the forward's private workspace has room for the backward's deltas, so
    # the backward must carve them there instead of reserving them again
    spec = VariantSpec.make(variant, "tanh")
    p, _ = init_params(spec, 28, 100, 10, seed=0)
    rng = np.random.default_rng(1)
    batch = SequenceBatch(inputs=rng.uniform(0.0, 1.0, size=(32, 28, 28)), labels=rng.integers(0, 10, size=32))
    buffer_mb = 8 * floats(bptt._carved(p.layout, 28, 32)) / 1e6
    assert traced_peak_mb(lambda: batch_loss_and_grads(spec, p, p, batch)) <= buffer_mb + 2.0


@pytest.mark.parametrize("T", [1, 4])
@pytest.mark.parametrize("n_h", [1, 5])
@pytest.mark.parametrize("B", [1, 3, 32])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_workspace_is_sized_to_what_a_batch_takes(variant, B, n_h, T):
    # T, the rows or B at 1 make _stacked carve (T, r, B), whose side-by-side form is a view
    spec = VariantSpec.make(variant, "relu")
    p, _ = init_params(spec, 3, n_h, 4, seed=0)
    rng = np.random.default_rng(2)
    batch = SequenceBatch(inputs=rng.uniform(0.0, 1.0, size=(B, T, 3)), labels=rng.integers(0, 4, size=B))
    ws = Workspace()
    logits, trace = forward_sequence(spec, p, p, np.swapaxes(batch.inputs, 0, 1), ws)
    backward_sequence(trace, softmax_xent(logits, batch.labels)[1])
    assert len(ws._buf) == floats(bptt._carved(p.layout, T, B))
    assert list(trace.room) == list(bptt._carved(p.layout, T, B))
    assert all(np.shares_memory(a, ws._buf) for a in trace.room.values() if a.size)


def test_workspace_cuts_a_cached_plan_again_in_a_grown_buffer(monkeypatch):
    a, b = layout("srn", 1, 1, 1), layout("lstm", 2, 3, 2)
    ws = Workspace()
    # x, pre and h (4 floats); the deltas, one step's deltas and act' factor, and h_0 (4 floats)
    first = ws.carve(a, 1, 1)
    assert len(ws._buf) == 8 and all(np.shares_memory(x, ws._buf) for x in first.values() if x.size)
    ws.carve(b, 2, 2)  # the buffer grows
    assert len(ws._buf) == floats(bptt._carved(b, 2, 2)) > 8
    again = ws.carve(a, 1, 1)  # a smaller call keeps it, and cuts a's arrays from it
    assert len(ws._buf) == floats(bptt._carved(b, 2, 2))
    assert all(np.shares_memory(x, ws._buf) for x in again.values() if x.size)
    assert not any(np.shares_memory(x, first["x"]) for x in again.values())

    planned = []
    monkeypatch.setattr(bptt, "_carved", lambda *key: planned.append(key))
    assert ws.carve(a, 1, 1) is again and planned == []


def test_lstm_workspace_at_paper_shapes_holds_only_the_live_trace():
    # 9.8 MB: the trace plus one step's scratch. One more whole-trace
    # (T, n_h, B) array is 0.7 MB.
    assert 8 * floats(bptt._carved(layout("lstm", 28, 100, 10), 28, 32)) <= 10e6


@pytest.mark.parametrize("shape", [*itertools.product((1, 2, 3), repeat=3), (28, 400, 32)])
def test_stacked_deltas_are_side_by_side_as_a_view(shape):
    # numpy's reshape copies silently where it cannot make a view; a copy
    # here would hold nothing the backward pass writes into its steps
    T, r, B = shape
    steps, side = bptt._stacked(Workspace().carve(layout("srn", 1, r, 2), T, B)["hs"])  # the srn's hs is (T, r, B)
    assert steps.shape == (T, r, B) and side.shape == (r, T * B)
    steps[...] = np.arange(steps.size).reshape(steps.shape)
    assert np.shares_memory(steps, side)
    assert np.array_equal(side, steps.transpose(1, 0, 2).reshape(r, T * B))


def test_paper_shape_bits_match_the_frozen_engine():
    # n_h = 100 and B = 32, the shapes of every benchmark op, and the edge
    # shapes where _stacked's two layouts meet (fixtures/paper_digests.json).
    # freeze() pins BLAS to one thread, as the CLI does, for this process.
    frozen = json.loads(paper.OUT.read_text())
    got = paper.freeze()
    assert len(frozen) == 42 and [k for k in frozen if got[k] != frozen[k]] == []
