import numpy as np
import pytest

from slimrnn import bptt
from slimrnn.bptt import forward_sequence
from slimrnn.cells import (
    ACTIVATIONS,
    GATES,
    Activation,
    Params,
    Variant,
    VariantSpec,
    init_params,
    layout,
)

ALL_VARIANTS = list(Variant)
GATED = [v for v in ALL_VARIANTS if v is not Variant.SRN]


def zeroed_params(variant, activation, n_in, n_h, n_out, forget_bias=0.0):
    spec = VariantSpec.make(variant, activation)
    cell, head = init_params(spec, n_in, n_h, n_out, seed=0)
    cell.vec[:] = 0.0
    if "b_f" in cell:
        cell["b_f"] = forget_bias
    return spec, cell, head


def test_activations():
    assert np.array_equal(ACTIVATIONS[Activation.TANH][0](np.array([0.0])), [0.0])
    assert np.array_equal(ACTIVATIONS[Activation.SIGMOID][0](np.array([0.0])), [0.5])
    assert np.array_equal(ACTIVATIONS[Activation.RELU][0](np.array([-2.0, 3.0])), [0.0, 3.0])


@pytest.mark.parametrize(
    "variant,expected",
    [
        ("lstm", 52610),
        ("lstm4", 14210),
        ("lstm5", 14510),
        ("lstm4a", 14010),
        ("lstm5a", 14110),
        ("lstm6", 13910),
    ],
)
def test_param_count_reference_sizes(variant, expected):
    assert layout(variant, 28, 100, 10).size == expected


# (k, g) per variant: its dense blocks, the candidate's among them, and its point-wise gate vectors plus biases
BLOCKS = {"srn": (1, 0), "lstm": (4, 0), "lstm4": (1, 3), "lstm5": (1, 6), "lstm4a": (1, 1), "lstm5a": (1, 2), "lstm6": (1, 0)}


@pytest.mark.parametrize("n_h", [100, 3_000_000_000])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_param_count_is_exact_at_any_size(variant, n_h):
    # k blocks of n_h rows [U | W | b], n_h + 28 + 1 wide, g vectors of n_h, then the head. At 3e9 units
    # the lstm's count, 3.6e19, is past int64; counting allocates nothing
    k, g = BLOCKS[variant.value]
    assert layout(variant, 28, n_h, 10).size == k * n_h * (n_h + 29) + g * n_h + 10 * (n_h + 1)


# pre-activations at the origin (both signs), the relu kink, deep saturation and beyond
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5, 30.0, -30.0, 1e300, -1e300, np.inf, -np.inf])


@pytest.mark.parametrize("act", list(Activation))
def test_activation_derivative_from_values_matches_the_closed_form(act):
    with np.errstate(over="ignore"):
        want = {
            Activation.TANH: 1.0 / np.cosh(EDGES) ** 2,
            Activation.SIGMOID: np.exp(-np.abs(EDGES)) / (1.0 + np.exp(-np.abs(EDGES))) ** 2,
            Activation.RELU: (EDGES > 0.0).astype(np.float64),  # 0 at the kink
        }[act]
    out = np.full_like(EDGES, np.nan)
    function, derivative = ACTIVATIONS[act]
    got = derivative(function(EDGES), out=out)
    assert got is out
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert np.array_equal(got[:2], [{Activation.TANH: 1.0, Activation.SIGMOID: 0.25, Activation.RELU: 0.0}[act]] * 2)


def test_param_count_scalar_cell():
    # lstm6 at n=1: W_c, U_c, b_c plus a 1x1 head and its bias.
    assert layout("lstm6", 1, 1, 1).size == 5


def test_param_count_matches_allocation():
    for variant in ALL_VARIANTS:
        for dims in [(3, 5, 4), (1, 1, 1), (2, 7, 3)]:
            spec = VariantSpec.make(variant, "sigmoid")
            cell, head = init_params(spec, *dims, seed=3)
            allocated = sum(a.size for a in {**cell.arrays(), **head.arrays()}.values())
            assert layout(variant, *dims).size == allocated == cell.vec.size, variant


def test_param_count_rejects_bad_dims():
    with pytest.raises(ValueError):
        layout("lstm", 0, 1, 1)


def test_variant_spec_constants():
    # (input, forget, output) fixed values, as the gate table gives them
    def consts(variant):
        return tuple(g if isinstance(g, float) else None for g in GATES[variant])

    assert consts("lstm4a") == consts("lstm5a") == (None, 0.96, 1.0)
    assert consts("lstm6") == (1.0, 0.59, 1.0)
    assert consts("lstm") == consts("lstm4") == consts("lstm5") == (None, None, None)
    assert GATES["srn"] is None


def test_variant_spec_rejects_wrong_constants():
    # every gate is a learned kind or a fixed value a sigmoid can take, and
    # every fixed forget value is below 1 (the cell stays BIBO)
    for variant in GATED:
        for gate in GATES[variant]:
            assert gate in ("dense", "pw", "pw+b") or (isinstance(gate, float) and 0.0 < gate <= 1.0), variant
        forget = GATES[variant][1]
        assert not isinstance(forget, float) or 0.0 < forget < 1.0, variant


# Each variant's wiring, worked out by hand from the gate table at n_h = 5:
# learned gate blocks in row order, gate_rows, dense_from, bias_from, the
# gates fixed at 1, the fixed values, and whether the cell keeps a state.
WIRING = {
    "srn": ([], 0, 0, 0, set(), {}, False),
    "lstm": (["i", "f", "o"], 15, 0, 0, set(), {}, True),
    "lstm4": (["i", "f", "o"], 15, 15, 15, set(), {}, True),
    "lstm5": (["i", "f", "o"], 15, 15, 0, set(), {}, True),
    "lstm4a": (["i"], 5, 5, 5, {"o"}, {"f": 0.96, "o": 1.0}, True),
    "lstm5a": (["i"], 5, 5, 0, {"o"}, {"f": 0.96, "o": 1.0}, True),
    "lstm6": ([], 0, 0, 0, {"i", "o"}, {"i": 1.0, "f": 0.59, "o": 1.0}, True),
}


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_layout_wiring_per_variant(variant):
    lay = layout(variant, 3, 5, 4)
    blocks = [(n, slice(5 * j, 5 * j + 5)) for j, n in enumerate(WIRING[variant][0])]
    assert (list(lay.block.items()), lay.gate_rows, lay.dense_from, lay.bias_from, lay.unit, lay.fixed,
            lay.memory) == (blocks, *WIRING[variant][1:])


# lstm at n_in = 3, n_h = 5: the dense stack's rows are the i, f, o and c blocks of 5, each row [U | W | b],
# so U takes columns 0-4, W columns 5-7 and the bias column 8
@pytest.mark.parametrize("name, block, cols", [("U_f", 1, slice(0, 5)), ("W_c", 3, slice(5, 8)), ("b_o", 2, 8)])
def test_a_named_dense_array_is_its_block_of_the_stack(name, block, cols):
    p = Params(layout("lstm", 3, 5, 4))
    marker = np.arange(1.0, p[name].size + 1).reshape(p[name].shape)
    p[name] = marker
    want = np.zeros((20, 9))
    want[5 * block : 5 * block + 5, cols] = marker
    assert np.array_equal(p.stacks["dense"], want) and np.shares_memory(p.stacks["dense"], p.vec)
    assert np.count_nonzero(p.vec) == marker.size  # nothing outside the stack moved either
    assert np.array_equal(p[name], marker)


def test_layout_cache_accepts_variant_names():
    # "lstm6" and Variant.LSTM6 are equal and hash alike, so they share one
    # cache slot: a Layout first built from the name must still hold the Variant
    layout.cache_clear()
    assert layout("lstm6", 3, 7, 11).variant is Variant.LSTM6
    spec = VariantSpec.make("lstm6", "tanh")
    cell, head = init_params(spec, 3, 7, 11, seed=0)
    logits, _ = forward_sequence(spec, cell, head, np.zeros((2, 1, 3)))
    assert logits.shape == (1, 11)


def test_init_is_deterministic():
    spec = VariantSpec.make("lstm", "tanh")
    a_cell, a_head = init_params(spec, 4, 6, 3, seed=11)
    b_cell, b_head = init_params(spec, 4, 6, 3, seed=11)
    for name, arr in a_cell.arrays().items():
        assert np.array_equal(arr, b_cell.arrays()[name])
    assert np.array_equal(a_head["W_hy"], b_head["W_hy"])
    assert np.array_equal(a_head["b_y"], b_head["b_y"])
    c_cell, _ = init_params(spec, 4, 6, 3, seed=12)
    assert not np.array_equal(a_cell["W_c"], c_cell["W_c"])


def test_init_biases():
    cell, head = init_params(VariantSpec.make("lstm", "tanh"), 3, 5, 2, seed=0)
    assert np.array_equal(cell["b_f"], np.ones(5))
    assert np.array_equal(cell["b_i"], np.zeros(5))
    assert np.array_equal(cell["b_o"], np.zeros(5))
    assert np.array_equal(cell["b_c"], np.zeros(5))
    assert np.array_equal(head["b_y"], np.zeros(2))
    # the ones-forget-bias is specific to the dense-gate cell
    cell5, _ = init_params(VariantSpec.make("lstm5", "tanh"), 3, 5, 2, seed=0)
    assert np.array_equal(cell5["b_f"], np.zeros(5))


def test_init_recurrent_orthogonal():
    cell, _ = init_params(VariantSpec.make("lstm", "tanh"), 3, 16, 2, seed=5)
    for U in (cell["U_i"], cell["U_f"], cell["U_o"], cell["U_c"]):
        err = np.max(np.abs(U.T @ U - np.eye(16)))
        assert err < 1e-10


def test_init_ranges():
    cell, _ = init_params(VariantSpec.make("lstm5", "tanh"), 8, 12, 3, seed=2)
    glorot = np.sqrt(6.0 / (8 + 12))
    assert np.max(np.abs(cell["W_c"])) <= glorot
    for u in (cell["u_i"], cell["u_f"], cell["u_o"]):
        assert np.max(np.abs(u)) <= 0.1


def test_field_names_per_variant():
    def names(variant):
        return tuple(layout(Variant(variant), 3, 5, 4).fields)

    head = ("W_hy", "b_y")
    assert names("lstm6") == ("W_c", "U_c", "b_c") + head
    assert names("srn") == ("W_c", "U_c", "b_c") + head
    assert names("lstm5a") == ("u_i", "b_i", "W_c", "U_c", "b_c") + head
    assert names("lstm4") == ("u_i", "u_f", "u_o", "W_c", "U_c", "b_c") + head
    assert names("lstm")[:3] == ("W_i", "U_i", "b_i") and len(names("lstm")) == 14


# Cell properties, asserted on the traces of the forward pass.


def test_step_zero_params_is_fixed_point():
    spec, cell, head = zeroed_params("lstm", "tanh", 3, 4, 2)
    _, trace = forward_sequence(spec, cell, head, np.array([[0.3, -1.0, 2.0]] * 3))
    assert np.array_equal(trace.h, np.zeros((4, 4, 1)))
    assert np.array_equal(trace.c, np.zeros((4, 4, 1)))


def test_step_scalar_chain_lstm6():
    spec, cell, head = zeroed_params("lstm6", "tanh", 1, 1, 1)
    cell["b_c"] = 0.5
    _, trace = forward_sequence(spec, cell, head, np.zeros((1, 1)))
    # independently computed: c1 = tanh(0.5), h1 = tanh(c1)
    assert trace.c[1, 0, 0] == pytest.approx(0.46211715726000974, abs=1e-12)
    assert trace.h[1, 0, 0] == pytest.approx(0.4318081805950961, abs=1e-12)
    assert trace.pre.shape[2] == 1  # every gate is a constant: only the candidate block


def test_step_lstm6_forget_constant_exact():
    # driven once, then undriven: c2 = 0.59 * c1 + 1 * tanh(0)
    spec, cell, head = zeroed_params("lstm6", "tanh", 1, 1, 1)
    cell["W_c"] = 1.0
    _, trace = forward_sequence(spec, cell, head, np.array([[1.0], [0.0]]))
    assert trace.c[1, 0, 0] == np.tanh(1.0)
    assert trace.c[2, 0, 0] == 0.59 * trace.c[1, 0, 0]


def test_step_rejects_bad_shapes():
    spec, cell, head = zeroed_params("lstm", "tanh", 3, 4, 2)
    for bad in (np.zeros((2, 2)), np.zeros(3), np.zeros((2, 0, 3)), np.zeros((1, 2, 2, 3))):
        with pytest.raises(ValueError):
            forward_sequence(spec, cell, head, bad)


def test_step_does_not_mutate_inputs():
    spec = VariantSpec.make("lstm5", "sigmoid")
    cell, head = init_params(spec, 3, 4, 2, seed=7)
    x = np.random.default_rng(7).uniform(0.0, 1.0, size=(5, 2, 3))
    snapshot = {k: v.copy() for k, v in {**cell.arrays(), **head.arrays()}.items()}
    x0 = x.copy()
    forward_sequence(spec, cell, head, x)
    assert np.array_equal(x, x0)
    for k, v in {**cell.arrays(), **head.arrays()}.items():
        assert np.array_equal(v, snapshot[k])


@pytest.mark.parametrize("variant", ["lstm4a", "lstm5a", "lstm6"])
def test_bibo_decay_with_zero_weights(variant):
    # driven by the first input only, then undriven: |c_t| <= f^(t-1) |c_1|
    # elementwise, so the state dies out
    spec, cell, head = zeroed_params(variant, "tanh", 3, 6, 2)
    f = GATES[variant][1]
    cell["W_c"] = np.random.default_rng(0).uniform(-2.0, 2.0, size=(6, 3))
    x = np.zeros((12, 3))
    x[0] = 1.0
    _, trace = forward_sequence(spec, cell, head, x)
    c1 = np.max(np.abs(trace.c[1]))
    assert c1 > 0.0
    for t in range(2, 13):
        bound = (f ** (t - 1)) * c1
        assert np.max(np.abs(trace.c[t])) <= bound + 1e-15


@pytest.mark.parametrize("variant", GATED)
@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_hidden_state_bounded(variant, activation):
    spec = VariantSpec.make(variant, activation)
    cell, head = init_params(spec, 3, 5, 2, seed=9)
    x = np.random.default_rng(1).uniform(-1, 1, size=(30, 4, 3))
    _, trace = forward_sequence(spec, cell, head, x)
    assert np.max(np.abs(trace.h)) <= 1.0


def test_saturated_gates_make_cell_additive():
    # with every gate pre-activation >= 30 the base cell acts like c += cand
    spec = VariantSpec.make("lstm", "tanh")
    cell, head = init_params(spec, 3, 4, 2, seed=0)
    for name in ("W_i", "U_i", "W_f", "U_f", "W_o", "U_o"):
        cell[name] = 0.0
    cell["b_i"] = 30.0
    cell["b_f"] = 30.0
    cell["b_o"] = 30.0
    x = np.random.default_rng(3).uniform(0, 1, size=(6, 2, 3))
    _, trace = forward_sequence(spec, cell, head, x)
    cand = trace.pre[:, -4:]
    assert np.max(np.abs(trace.c[1:] - (trace.c[:-1] + cand))) < 1e-9


def test_srn_carries_cell_state_untouched():
    # the srn keeps no cell state at all; only its hidden state moves
    spec = VariantSpec.make("srn", "tanh")
    cell, head = init_params(spec, 3, 4, 2, seed=1)
    _, trace = forward_sequence(spec, cell, head, np.ones((3, 3)))
    assert trace.c is None and trace.sig_c is None and not {"c", "sig_c"} & set(bptt._carved(cell.layout, 3, 1))
    assert all(step.c is None for step in trace)
    assert not np.array_equal(trace.h[1:], np.zeros((3, 4, 1)))


def test_predict():
    # the head reads the final hidden state: logits = W_hy h_T + b_y
    spec, cell, head = zeroed_params("lstm6", "tanh", 1, 1, 2)
    cell["b_c"] = 0.5
    head["W_hy"] = [[2.0], [-1.0]]
    head["b_y"] = [1.0, 2.0]
    logits, trace = forward_sequence(spec, cell, head, np.zeros((1, 1)))
    h1 = 0.4318081805950961  # tanh(tanh(0.5)), as in the scalar chain
    assert trace.h[1, 0, 0] == pytest.approx(h1, abs=1e-12)
    assert logits == pytest.approx([1.0 + 2.0 * h1, 2.0 - h1], abs=1e-12)
