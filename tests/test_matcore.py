import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinematica.matcore import (
    BlockForm,
    Metric,
    as_square,
    block_join,
    block_split,
    bracket,
    dagger,
    mat_exp,
    op_norm as frobenius_norm,
)


def op_norm(m) -> float:
    """Spectral norm: the tests measure in it, whatever norm the library
    scales its tolerances by."""
    return float(np.linalg.norm(m, 2))


ENTRIES = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
SMALL_MATRICES = arrays(np.float64, (3, 3), elements=ENTRIES)


def test_as_square_rejects_bad_input():
    with pytest.raises(ValueError):
        as_square(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_square(np.ones((1, 1)))
    with pytest.raises(ValueError):
        as_square([[np.nan, 0.0], [0.0, 1.0]])


def test_op_norm_is_the_frobenius_bound_on_the_spectral_norm():
    rng = np.random.default_rng(5)
    for d in (2, 3, 11):
        M = rng.standard_normal((d, d))
        assert frobenius_norm(M) == float(np.linalg.norm(M))
        assert op_norm(M) <= frobenius_norm(M) <= np.sqrt(d) * op_norm(M) * (1 + 1e-15)


def test_as_square_copies():
    M = np.eye(2)
    out = as_square(M)
    out[0, 0] = 5.0
    assert M[0, 0] == 1.0


def test_block_split_2x2():
    blocks = block_split([[1.0, 2.0], [3.0, 4.0]])
    assert blocks.A.shape == (1, 1) and blocks.A[0, 0] == 1.0
    assert blocks.b[0] == 2.0
    assert blocks.c[0] == 3.0
    assert blocks.d == 4.0


def test_block_split_boost_shape():
    # one space dimension, column entry 1, row entry 2
    blocks = block_split([[0.0, 1.0], [2.0, 0.0]])
    assert blocks.b[0] == 1.0 and blocks.c[0] == 2.0
    assert blocks.A[0, 0] == 0.0 and blocks.d == 0.0


def test_block_round_trip_is_exact():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    out = block_join(block_split(M))
    assert np.array_equal(out, M)


def test_block_join_embeds_mixing_entries():
    n = 2
    M = block_join(BlockForm(np.zeros((n, n)), np.array([1.0, 0.0]),
                             np.array([1.0, 0.0]), 0.0))
    assert M[0, 2] == 1.0 and M[2, 0] == 1.0
    assert np.count_nonzero(M) == 2


def test_block_join_rejects_mismatched_vectors():
    with pytest.raises(ValueError):
        block_join(BlockForm(np.zeros((2, 2)), np.zeros(3), np.zeros(2), 0.0))


def test_bracket_with_self_is_zero():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 3))
    assert np.array_equal(bracket(X, X), np.zeros((3, 3)))


def test_bracket_of_elementary_matrices():
    X = np.zeros((3, 3))
    X[0, 1] = 1.0
    Y = np.zeros((3, 3))
    Y[1, 0] = 1.0
    np.testing.assert_array_equal(bracket(X, Y), np.diag([1.0, -1.0, 0.0]))


@settings(max_examples=40, deadline=None)
@given(SMALL_MATRICES, SMALL_MATRICES, SMALL_MATRICES)
def test_bracket_identities(X, Y, Z):
    np.testing.assert_allclose(bracket(X, Y), -bracket(Y, X), atol=1e-12)
    np.testing.assert_allclose(
        bracket(X + Z, Y), bracket(X, Y) + bracket(Z, Y), atol=1e-12)
    jacobi = (bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X))
              + bracket(Z, bracket(X, Y)))
    np.testing.assert_allclose(jacobi, np.zeros((3, 3)), atol=1e-12)


def test_mat_exp_of_zero():
    np.testing.assert_array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_nilpotent_is_one_plus_generator():
    Z = np.zeros((3, 3))
    Z[0, 2] = 0.7
    Z[1, 2] = -1.3
    np.testing.assert_allclose(mat_exp(Z), np.eye(3) + Z, atol=1e-15, rtol=0)


def test_mat_exp_matches_symmetric_eigen_oracle():
    # independent route: diagonalize a symmetric argument
    rng = np.random.default_rng(2)
    for _ in range(20):
        S = rng.standard_normal((4, 4))
        S = S + S.T
        S *= 10.0 / op_norm(S)
        w, Q = np.linalg.eigh(S)
        oracle = (Q * np.exp(w)) @ Q.T
        got = mat_exp(S)
        assert op_norm(got - oracle) <= 1e-12 * op_norm(oracle)


def test_mat_exp_inverse_pairing():
    rng = np.random.default_rng(3)
    for _ in range(20):
        Z = rng.standard_normal((4, 4))
        Z *= rng.uniform(0.0, 5.0) / op_norm(Z)
        resid = op_norm(mat_exp(Z) @ mat_exp(-Z) - np.eye(4))
        assert resid <= 1e-11


def test_mat_exp_periodic_boost_wraps_to_reflection():
    # sigma = -1 boost of norm pi along the first axis
    Z = np.zeros((3, 3))
    Z[0, 2] = np.pi
    Z[2, 0] = -np.pi
    np.testing.assert_allclose(mat_exp(Z), np.diag([-1.0, 1.0, -1.0]), atol=1e-12)


def test_metric_gram_matrices():
    np.testing.assert_array_equal(Metric(2.0, 2).gram, np.diag([-2.0, -2.0, 1.0]))
    np.testing.assert_array_equal(Metric(-2.0, 2).gram, np.diag([2.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        Metric(0.0, 2)
    with pytest.raises(ValueError):
        Metric(np.inf, 2)
    with pytest.raises(ValueError):
        Metric(1.0, 0)


def test_dagger_negates_rotation_generators():
    Z = np.zeros((4, 4))
    Z[0, 1], Z[1, 0] = 1.0, -1.0
    Z[1, 2], Z[2, 1] = -0.5, 0.5
    for sigma in (1.0, -1.0):
        np.testing.assert_allclose(dagger(Z, Metric(sigma, 3)), -Z, atol=1e-15)


def test_dagger_moves_column_to_negated_row():
    Z = np.zeros((3, 3))
    Z[0, 2] = 1.0  # column vector e1
    out = dagger(Z, Metric(1.0, 2))
    expected = np.zeros((3, 3))
    expected[2, 0] = -1.0
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_dagger_matches_explicit_gram_conjugation():
    rng = np.random.default_rng(4)
    for sigma in (1.7, -1.7):
        m = Metric(sigma, 3)
        g = m.gram
        for _ in range(5):
            Z = rng.standard_normal((4, 4))
            oracle = np.linalg.inv(g) @ Z.T @ g
            np.testing.assert_allclose(dagger(Z, m), oracle, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(SMALL_MATRICES, st.sampled_from([0.5, 1.0, -2.0]), st.sampled_from([1, -1]))
def test_dagger_involution(Z, sigma, sign):
    m = Metric(sign * sigma, 2)
    np.testing.assert_allclose(dagger(dagger(Z, m), m), Z, atol=1e-14)


def test_dagger_reverses_products():
    rng = np.random.default_rng(5)
    m = Metric(-0.8, 2)
    for _ in range(10):
        X = rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3))
        lhs = dagger(X @ Y, m)
        rhs = dagger(Y, m) @ dagger(X, m)
        assert op_norm(lhs - rhs) <= 1e-12 * (1.0 + op_norm(lhs))
