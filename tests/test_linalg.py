import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimrnn.linalg import matvec, matvec_transposed


def test_matvec_identity():
    assert np.array_equal(matvec(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])


def test_matvec_hand():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matvec(m, np.array([1.0, 1.0])), [3.0, 7.0])


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        matvec(np.zeros((2, 3)), np.zeros(2))


def test_matvec_rejects_non_vector():
    with pytest.raises(ValueError):
        matvec(np.zeros((2, 2)), np.zeros((2, 2)))


def test_matvec_transposed_identity():
    v = np.array([5.0, -1.0, 2.0])
    assert np.array_equal(matvec_transposed(np.eye(3), v), v)


def test_matvec_transposed_hand():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matvec_transposed(m, np.array([1.0, 1.0])), [4.0, 6.0])


def test_matvec_transposed_dimension_mismatch():
    with pytest.raises(ValueError):
        matvec_transposed(np.zeros((3, 2)), np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_adjoint_identity(rows, cols, seed):
    # <m u, v> == <u, m^T v> ties matvec and matvec_transposed together.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    u = rng.standard_normal(cols)
    v = rng.standard_normal(rows)
    lhs = float(np.dot(matvec(m, u), v))
    rhs = float(np.dot(u, matvec_transposed(m, v)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_operations_do_not_mutate():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = np.array([1.0, 1.0])
    m0, v0 = m.copy(), v.copy()
    matvec(m, v)
    matvec_transposed(m, v)
    assert np.array_equal(m, m0)
    assert np.array_equal(v, v0)
