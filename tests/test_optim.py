import numpy as np
import pytest

from slimrnn.cells import VariantSpec, init_params
from slimrnn.harness import ConfigError, TrainConfig
from slimrnn.optim import RHO, rmsprop_step


def simple_vectors():
    """Parameters, a zero accumulator, and nothing else: one flat vector each."""
    return np.array([0.0, 1.0, 2.0]), np.zeros(3)


def test_zero_gradient_leaves_params_and_decays_accumulator():
    w, acc = simple_vectors()
    acc[:] = [0.4, 0.8, 0.0]
    rmsprop_step(w, np.zeros(3), acc, eta=1e-3)
    assert np.array_equal(w, [0.0, 1.0, 2.0])
    assert np.allclose(acc, [0.36, 0.72, 0.0], atol=1e-15)


def test_first_step_closed_form():
    w, acc = np.array([0.0]), np.zeros(1)
    rmsprop_step(w, np.array([1.0]), acc, eta=1e-3)
    assert acc[0] == pytest.approx(0.1, abs=1e-15)
    # independently computed: -1e-3 / (sqrt(0.1) + 1e-7)
    assert w[0] == pytest.approx(-0.0031622766601686956, abs=1e-15)


def test_zero_gradient_fixed_point_forever():
    w, acc = simple_vectors()
    for _ in range(3):
        rmsprop_step(w, np.zeros(3), acc, eta=0.5)
    assert np.array_equal(w, [0.0, 1.0, 2.0])
    assert np.array_equal(acc, np.zeros(3))


def test_first_step_magnitude_bound():
    # |step| <= eta / sqrt(1 - RHO) from a zero accumulator
    rng = np.random.default_rng(0)
    eta = 2e-3
    bound = eta / np.sqrt(1.0 - RHO)
    for _ in range(10):
        w = rng.standard_normal(5)
        g = rng.standard_normal(5) * 10.0 ** rng.integers(-6, 6)
        w0 = w.copy()
        rmsprop_step(w, g, np.zeros(5), eta=eta)
        assert np.max(np.abs(w - w0)) <= bound + 1e-12


def test_accumulators_stay_nonnegative():
    rng = np.random.default_rng(1)
    w, acc = rng.standard_normal(4), np.zeros(4)
    for _ in range(50):
        rmsprop_step(w, rng.standard_normal(4) * 5, acc, eta=1e-3)
        assert np.all(acc >= 0.0)


def test_state_covers_exactly_the_variant_arrays():
    # the named arrays tile the parameter vector, so one accumulator vector
    # of its length covers exactly the variant's arrays
    spec = VariantSpec.make("lstm6", "tanh")
    params, _ = init_params(spec, 28, 100, 10, seed=0)
    assert set(params) == {"W_c", "U_c", "b_c", "W_hy", "b_y"}
    owner = np.zeros(params.vec.size, dtype=int)
    for a in params.values():
        assert np.shares_memory(a, params.vec)
        a[...] = 1.0
        owner += params.vec == 1.0
        a[...] = 0.0
    assert np.array_equal(owner, np.ones_like(owner))


def test_key_and_shape_mismatches_rejected():
    # a gradient or accumulator of another layout, even a broadcastable one,
    # is refused before anything is written
    w, acc = simple_vectors()
    for g, a in ((np.zeros(2), acc), (np.ones(1), acc), (np.zeros(3), np.zeros(4))):
        with pytest.raises(ValueError):
            rmsprop_step(w, g, a, eta=1e-3)
    assert np.array_equal(w, [0.0, 1.0, 2.0]) and np.array_equal(acc, np.zeros(3))


def test_rms_state_validates_hyperparameters():
    # RMSprop's one configurable hyperparameter, eta, is checked with the
    # training configuration; rho and eps are constants of the protocol
    for eta in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            TrainConfig("lstm6", "tanh", eta=eta).validate()


def test_step_does_not_mutate_inputs():
    # only the parameters and the accumulator are updated, in place
    w, acc = simple_vectors()
    g = np.array([0.5, -0.5, 1.0])
    g0 = g.copy()
    rmsprop_step(w, g, acc, eta=1e-2)
    assert np.array_equal(g, g0)
    assert not np.array_equal(w, [0.0, 1.0, 2.0]) and np.all(acc > 0.0)
