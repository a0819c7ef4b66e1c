import itertools
import math
import weakref

import numpy as np
import pytest

from slimrnn import bptt
from slimrnn.bptt import Workspace, backward_sequence, batch_loss_and_grads, forward_sequence, softmax_xent
from slimrnn.cells import Activation, Params, Variant, VariantSpec, init_params, layout
from slimrnn.data import SequenceBatch, Split
from slimrnn.harness import evaluate
from slimrnn.rng import TAG_GRADCHECK, stream

from .conftest import seeded_batch, traced_peak_mb
from .fixtures import freeze
from .test_cells import zeroed_params

ALL_VARIANTS = list(Variant)
ALL_ACTIVATIONS = list(Activation)
FROZEN_DIGESTS = freeze.load("batch_digests.json")


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
    # every block's value overwrites its pre-activation: the candidate block
    # of pre holds relu of the pre-activation, which is recomputed here from
    # the inputs and the kept hidden states and has negative entries, so the
    # clamp is exercised; iteration reads that block, and no other array
    # keeps a candidate value or a pre-activation
    spec = VariantSpec.make(variant, "relu")
    p, _ = init_params(spec, 3, 5, 4, seed=0)
    x = stream(1, TAG_GRADCHECK).uniform(-1.0, 1.0, size=(4, 3, 3))
    _, trace = forward_sequence(spec, p, p, x)
    assert trace.pre[:, -5:].shape == (4, 5, 3) and "act" not in bptt._carved(p.layout, 4, 3)
    for t, step in enumerate(trace):
        a = p["W_c"] @ x[t].T + p["U_c"] @ trace.h[t] + p["b_c"][:, None]
        assert (a < 0.0).any() and (a > 0.0).any()
        assert np.array_equal(step.a_c, trace.pre[t, -5:]) and (step.a_c >= 0.0).all()
        assert np.allclose(step.a_c, np.maximum(a, 0.0), rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize("variant", ["lstm", "lstm6", "srn"])
def test_a_forward_of_an_activation_per_column_block_runs_each_as_its_own_and_has_no_backward(variant):
    # block j of the columns runs activations[j], bitwise as a forward of its own; the trace records the
    # tuple, its backward is refused, and columns that do not split into equal blocks are refused
    x = stream(2, TAG_GRADCHECK).uniform(0.0, 1.0, size=(4, 2, 3))
    spec = VariantSpec.make(variant, "tanh")
    p, _ = init_params(spec, 3, 5, 4, seed=0)
    acts = (Activation.RELU, Activation.TANH, Activation.SIGMOID)
    logits, trace = forward_sequence(spec, p, p, np.tile(x, (1, 3, 1)), activations=acts)
    assert trace.activation == acts
    for j, a in enumerate(acts):
        want, alone = forward_sequence(VariantSpec.make(variant, a), p, p, x)
        assert logits[2 * j : 2 * j + 2].tobytes() == want.tobytes(), a
        assert trace.h[:, :, 2 * j : 2 * j + 2].tobytes() == alone.h.tobytes(), a
    with pytest.raises(ValueError, match="one activation per column block"):
        backward_sequence(trace, np.zeros((6, 4)))
    with pytest.raises(ValueError, match="equal blocks"):
        forward_sequence(spec, p, p, np.tile(x, (1, 2, 1)), activations=acts)


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


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_forward_returns_its_workspaces_trace_and_the_next_refills_it(variant):
    # the trace is the workspace's carve for its (layout, T, B): a second
    # forward of that shape returns the same object, which then describes
    # the second call and walks back as a fresh workspace's trace does
    x = stream(1, TAG_GRADCHECK).uniform(0.0, 1.0, size=(4, 3, 3))
    ws = Workspace()
    first_spec, spec = VariantSpec.make(variant, "tanh"), VariantSpec.make(variant, "relu")
    p, _ = init_params(first_spec, 3, 5, 4, seed=0)
    _, first = forward_sequence(first_spec, p, p, x, ws)
    assert first is ws.carve(p.layout, 4, 3)
    cell, _ = init_params(spec, 3, 5, 4, seed=1)
    head = Params(cell.layout, cell.vec.copy())
    logits, second = forward_sequence(spec, cell, head, x, ws)
    assert second is first
    assert second.cell is cell and second.head is head and second.activation is Activation.RELU
    fresh_logits, fresh = forward_sequence(spec, cell, head, x, Workspace())
    _, dlogits = softmax_xent(logits, np.array([0, 1, 3]))
    assert logits.tobytes() == fresh_logits.tobytes()
    assert backward_sequence(second, dlogits).vec.tobytes() == backward_sequence(fresh, dlogits).vec.tobytes()


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_forward_without_a_workspace_returns_a_trace_nothing_else_holds(variant):
    spec, cell, head, seq, _ = random_setup(variant, "tanh")
    _, trace = forward_sequence(spec, cell, head, seq)
    held = weakref.ref(trace)
    del trace
    assert held() is None


@pytest.mark.parametrize("activation", ALL_ACTIVATIONS)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_workspace_reuse_is_bitwise_neutral(variant, activation):
    # A workspace sized by a larger batch and then filled with NaN must give
    # what fresh arrays give, bit for bit: an array the engine reads before
    # writing shows up as NaN. Both must match the bits frozen from the
    # engine before it took a workspace (fixtures/batch_digests.json).
    spec = VariantSpec.make(variant, activation)
    p = freeze.digest_params(spec)
    ws = Workspace()
    batch_loss_and_grads(spec, p, p, freeze.digest_batch(32), ws)  # room for an evaluation chunk too
    for size in freeze.DIGEST_SIZES:
        batch = freeze.digest_batch(size)
        fresh = batch_loss_and_grads(spec, p, p, batch)
        ws._buf.fill(np.nan)
        loss, grads, correct = batch_loss_and_grads(spec, p, p, batch, ws)
        assert not np.isnan(ws._buf).all(), "the call did not use the workspace"
        assert (loss, correct) == (fresh[0], fresh[2]) and np.array_equal(grads.vec, fresh[1].vec), size
        assert freeze.digest(*fresh) == FROZEN_DIGESTS[f"{spec.variant.value}/{spec.activation.value}/{size}"]

    batch = freeze.digest_batch(40)  # two evaluation chunks, the second one short
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
    batch = seeded_batch([1], 32, 28, 28, 10)
    ws = Workspace()
    batch_loss_and_grads(spec, p, p, batch, ws)
    assert traced_peak_mb(lambda: batch_loss_and_grads(spec, p, p, batch, ws)) <= 2.0


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_batch_without_a_workspace_allocates_one_buffer(variant):
    # the forward's private workspace has room for the backward's deltas, so
    # the backward must carve them there instead of reserving them again
    spec = VariantSpec.make(variant, "tanh")
    p, _ = init_params(spec, 28, 100, 10, seed=0)
    batch = seeded_batch([1], 32, 28, 28, 10)
    buffer_mb = 8 * floats(bptt._carved(p.layout, 28, 32)) / 1e6
    assert traced_peak_mb(lambda: batch_loss_and_grads(spec, p, p, batch)) <= buffer_mb + 2.0


@pytest.mark.parametrize("T", [1, 4])
@pytest.mark.parametrize("n_h", [1, 5])
@pytest.mark.parametrize("B", [1, 3, 32])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_workspace_is_sized_to_what_a_batch_takes(variant, B, n_h, T):
    # T, the rows or B at 1 must not change the side-by-side forms, which are views
    spec = VariantSpec.make(variant, "relu")
    p, _ = init_params(spec, 3, n_h, 4, seed=0)
    batch = seeded_batch([2], B, T, 3, 4)
    ws = Workspace()
    logits, trace = forward_sequence(spec, p, p, np.swapaxes(batch.inputs, 0, 1), ws)
    backward_sequence(trace, softmax_xent(logits, batch.labels)[1])
    assert len(ws._buf) == floats(bptt._carved(p.layout, T, B))
    assert trace is ws.carve(p.layout, T, B)
    assert all(np.shares_memory(a, ws._buf) for a in arrays_of(trace) if a.size)


def test_workspace_cuts_a_cached_plan_again_in_a_grown_buffer(monkeypatch):
    a, b = layout("srn", 1, 1, 1), layout("lstm", 2, 3, 2)
    ws = Workspace()
    # z, [h; x; 1] at two steps with the srn's pre in it, and two operands (12 floats); the deltas,
    # one step's deltas, act' factor and dh (4 floats)
    first = ws.carve(a, 1, 1)
    assert len(ws._buf) == 16 and all(np.shares_memory(x, ws._buf) for x in arrays_of(first) if x.size)
    ws.carve(b, 2, 2)  # the buffer grows
    assert len(ws._buf) == floats(bptt._carved(b, 2, 2)) > 16
    again = ws.carve(a, 1, 1)  # a smaller call keeps it, and cuts a's arrays from it
    assert len(ws._buf) == floats(bptt._carved(b, 2, 2))
    assert all(np.shares_memory(x, ws._buf) for x in arrays_of(again) if x.size)
    assert not any(np.shares_memory(x, first.x) for x in arrays_of(again))

    planned = []
    monkeypatch.setattr(bptt, "_carved", lambda *key: planned.append(key))
    assert ws.carve(a, 1, 1) is again and planned == []


def test_a_grown_buffer_starts_on_a_cache_line():
    # where the heap places the buffer must not set the engine's speed: every grown buffer starts on 64 bytes
    ws = Workspace()
    for lay in (layout("lstm", 3, n_h, 4) for n_h in (1, 5, 40, 160, 1000)):  # each grows the buffer
        ws.carve(lay, 4, 3)
        assert ws._buf.ctypes.data % 64 == 0 and len(ws._buf) == floats(bptt._carved(lay, 4, 3))


def test_alternating_carves_of_two_layouts_build_each_plan_once(monkeypatch):
    # two layouts in turn, the second's plan the larger (n_h = 5 and 160, B = 3)
    small, large = (layout("lstm", 3, n_h, 4) for n_h in (5, 160))
    real, planned = bptt._carved, []
    monkeypatch.setattr(bptt, "_carved", lambda *key: planned.append(key) or real(*key))
    ws = Workspace()
    plans = {key: ws.carve(*key) for key in [(small, 4, 3), (large, 4, 3)]}  # the second grows the buffer
    plans[small, 4, 3] = ws.carve(small, 4, 3)  # so the first is cut again from the grown one, once
    for _ in range(3):
        for key, plan in plans.items():
            assert ws.carve(*key) is plan
    assert planned == [(small, 4, 3), (large, 4, 3), (small, 4, 3)]


def arrays_of(obj) -> list[np.ndarray]:
    """Every array held by ``obj``, a trace's arrays and views included, however deeply nested."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, bptt.Trace):
        obj = vars(obj)
    items = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else []
    return [a for item in items for a in arrays_of(item)]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_grown_buffer_keeps_no_view_of_the_old_one(variant):
    small, large = layout(variant, 3, 5, 4), layout(variant, 3, 160, 4)
    ws = Workspace()
    ws.carve(small, 4, 3)
    ws.carve(small, 2, 1)
    old = ws._buf
    ws.carve(large, 4, 1)
    ws.carve(small, 4, 3)
    assert ws._buf is not old and len(ws._traces) == 2
    views = arrays_of(list(ws._traces.values()))
    assert len(views) > sum(len(bptt._carved(*key)) for key in ws._traces)
    assert all(np.shares_memory(v, ws._buf) for v in views if v.size)
    assert not any(np.shares_memory(v, old) for v in views)


def test_lstm_workspace_at_paper_shapes_holds_only_the_live_trace():
    # 7.9 MB, under 8.4: the trace plus one step's scratch. One more whole-trace
    # (T, n_h, B) array, such as every step's candidate values next to
    # their pre-activations or every step's act(c_t), is 0.7 MB.
    assert 8 * floats(bptt._carved(layout("lstm", 28, 100, 10), 28, 32)) <= 8.4e6
    for variant in Variant:
        plan = bptt._carved(layout(variant, 28, 100, 10), 28, 32)
        # the candidate values are pre's last block (all of lstm6's pre), and act(c_t) is kept for one step
        assert [name for name, shape in plan.items() if shape == (28, 100, 32)] in ([], ["pre"])
        assert plan.get("sig_c", (100, 32)) == (100, 32)
        assert 8 * floats(plan) <= {"lstm4a": 5.4e6, "lstm5a": 5.4e6, "lstm6": 3.92e6, "srn": 2.43e6}.get(variant.value, 8.4e6)


# every variant's float64 count of _carved at (T, n_h, B), n_in = 28: the paper's shape and paper_digests' edges
CARVED_FLOATS = {
    "srn": (227168, 434, 468, 273), "lstm": (982368, 522, 768, 493), "lstm4": (972768, 516, 723, 478),
    "lstm5": (972768, 516, 723, 478), "lstm4a": (598368, 474, 588, 373), "lstm5a": (598368, 474, 588, 373),
    "lstm6": (412768, 454, 528, 323),
}


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_the_memory_plan_keeps_its_size(variant):
    # [h; x; 1] of every step kept once, side by side, in place of the inputs, the hidden states and their copy
    shapes = (freeze.PAPER, *freeze.EDGES)
    got = tuple(floats(bptt._carved(layout(variant, 28, n_h, 10), T, B)) for T, n_h, B in shapes)
    assert got == CARVED_FLOATS[variant.value]


def within(a: np.ndarray, room: np.ndarray) -> bool:
    (lo, hi), (room_lo, room_hi) = map(np.lib.array_utils.byte_bounds, (a, room))
    return room_lo <= lo and hi <= room_hi


@pytest.mark.parametrize(
    "shape",
    dict.fromkeys([freeze.PAPER, *freeze.EDGES, *itertools.product((4,), (1, 5), (1, 3, 8))]),
    ids=lambda shape: "x".join(map(str, shape)),
)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_the_projection_goes_straight_into_pre_where_every_product_is_a_gemm(variant, shape):
    # at every T, n_h and B: one (n_h, n_h + n_in + 1) product per dense block and step, from a contiguous
    # operand [h; x; 1] straight into pre's dense rows, or for the srn, whose pre is h_1 .. h_T in z, into
    # the next step's operand; the two operands take turns. Each step's whole pre-activation slab, (m, B), is
    # contiguous, so a flat index names one entry of it
    T, n_h, B = shape
    lay = layout(variant, 28, n_h, 10)
    trace = Workspace().carve(lay, T, B)
    assert trace.zt.shape == (2, n_h + 29, B) and trace.zt.flags.c_contiguous
    assert trace.z.shape == (n_h + 29, T + 1, B) and within(trace.x, trace.z) and within(trace.h, trace.z)
    for t, (op, h_prev, slab, dense, *_, cand, h_op, h_t, x_op, x_next, _, _, _, _, _) in enumerate(trace.forward_steps):
        assert op.shape == (n_h + 29, B) and within(op, trace.zt[t % 2]) and within(h_prev, op)
        assert within(h_op, trace.zt[(t + 1) % 2])
        assert slab.shape == (lay.gate_rows + n_h, B) and slab.flags.c_contiguous and within(dense, slab)
        assert within(slab, trace.pre[t] if lay.memory else h_op)
        assert dense.shape == (len(lay.dense), n_h, B) and np.shares_memory(cand, dense)
        assert within(dense, trace.pre[t, lay.dense_from :] if lay.memory else h_op)
        assert np.shares_memory(h_t, trace.h[t + 1]) and within(x_op, trace.zt[(t + 1) % 2])
        assert np.shares_memory(x_next, trace.z[n_h:-1, t + 1])
    if not lay.memory:
        assert within(trace.pre, trace.z)


@pytest.mark.parametrize("shape", [*itertools.product((1, 2, 3), repeat=3), (28, 400, 32)])
def test_stacked_deltas_are_side_by_side_as_a_view(shape):
    # numpy's reshape copies silently where it cannot make a view; a copy
    # here would hold nothing the backward pass writes into its steps, nor
    # the hidden states and inputs the forward writes into z
    T, r, B = shape
    trace = Workspace().carve(layout("srn", 1, r, 2), T, B)  # the srn's deltas are (r, B) per step
    steps, side = np.array([step[-1] for step in trace.steps]), trace.deltas
    assert steps.shape == (T, r, B) and side.shape == (r, T * B)
    for t, step in enumerate(trace.steps):
        step[-1][...] = np.arange(r * B).reshape(r, B) + t * r * B
    assert np.array_equal(side, np.array([step[-1] for step in trace.steps]).transpose(1, 0, 2).reshape(r, T * B))
    trace.z[...] = np.arange(trace.z.size).reshape(trace.z.shape)
    assert trace.z_past.shape == (r + 2, T * B) and np.shares_memory(trace.z_past, trace.z)
    assert np.array_equal(trace.z_past, trace.z[:, :T].reshape(r + 2, T * B))


def test_paper_shape_bits_match_the_frozen_engine():
    # n_h = 100 and B = 32, the shapes of every benchmark op, and the edge
    # shapes where one of T, n_h and B is 1 (fixtures/paper_digests.json),
    # at the one BLAS thread conftest pins.
    frozen = freeze.load("paper_digests.json")
    got = freeze.paper_digests()
    assert len(frozen) == 42 and [k for k in frozen if got[k] != frozen[k]] == []
