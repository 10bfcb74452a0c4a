import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinematica.matcore import (
    as_square,
    balance,
    bracket,
    dagger,
    mat_exp,
    op_norm as frobenius_norm,
    unit_exponent,
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
    # numpy's own formula, bit for bit, on vectors, stacks and views at any scale
    for shape in ((3,), (4, 4), (5, 4, 4), (2, 3, 5)):
        for scale in (1e-100, 1.0, 1e100):
            x = scale * rng.standard_normal(shape)
            for view in (x, x.T, x[..., ::2]):
                assert frobenius_norm(view) == float(np.linalg.norm(view))


def test_op_norm_and_dagger_of_a_stack_are_those_of_each_matrix():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 4, 4)) * rng.uniform(1e-3, 1e3, (5, 1, 1))
    assert frobenius_norm(x, 2).tolist() == [frobenius_norm(m) for m in x]
    assert frobenius_norm(x[:, 0], 1).tolist() == [frobenius_norm(m[0]) for m in x]
    for sigma in (0.3, -7.0):
        adj = dagger(x, sigma)
        assert all(np.array_equal(adj[i], dagger(m, sigma)) for i, m in enumerate(x))


def test_balance_from_sigma_maps_the_boost_generator_exactly():
    # D = diag(1, ..., 1, 2^-k) sends the generator of b at sigma to that of
    # 2^k b at 4^-k sigma, with 4^-k sigma in [1/2, 2), bit for bit.
    rng = np.random.default_rng(7)
    for sigma in (1.0, 0.7, 3.0, 1e-12, 1e12, -1e300, 5e-324, 1.7e308):
        b = rng.uniform(-1.0, 1.0, 3)
        Z = np.zeros((4, 4))
        Z[:3, 3], Z[3, :3] = b, sigma * b
        k = balance(Z, sigma)
        assert 0.5 <= abs(math.ldexp(sigma, -2 * k)) < 2.0
        np.testing.assert_array_equal(Z[:3, 3], np.ldexp(b, k))
        np.testing.assert_array_equal(Z[3, :3], np.ldexp(sigma * b, -k))


def test_balance_of_exponents_matches_balance_of_values():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4))
    mant, exps = np.frexp(a)
    assert balance(exps, 1e-20) == balance(a, 1e-20) == -33
    np.testing.assert_array_equal(np.ldexp(mant, exps), a)


def levelled(x):
    """balance's k from the largest mixing entries of x, as the callers without a sigma take it."""
    return unit_exponent(abs(x[..., :3, 3]).max(), abs(x[..., 3, :3]).max())


def test_balance_without_sigma_levels_the_mixing_entries():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((3, 4, 4))
    for j in (0, 1, -1, 12, -12, 23, -23):
        x = stack.copy()
        x[:, 3, :3] *= 2.0 ** j
        x[:, :3, 3] /= 2.0 ** j
        y = x.copy()
        k = balance(y, k=levelled(y))
        ratio = abs(y[:, 3, :3]).max() / abs(y[:, :3, 3]).max()
        assert 0.25 <= ratio < 2.0
        assert balance(y, k=-k) == -k
        np.testing.assert_array_equal(y, x)  # -k undoes it


def test_balance_leaves_galilei_and_carroll_content_alone():
    x = np.zeros((2, 4, 4))
    x[:, :3, 3] = [[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]
    assert balance(x.copy(), k=levelled(x)) == 0  # no row: Galilei
    carroll = x.swapaxes(-1, -2).copy()
    assert balance(carroll.copy(), k=levelled(carroll)) == 0  # no column


def test_as_square_copies():
    M = np.eye(2)
    out = as_square(M)
    out[0, 0] = 5.0
    assert M[0, 0] == 1.0


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


def test_mat_exp_of_a_stack_is_that_of_each_matrix_bit_for_bit():
    # Norms from 1e-3 to 30 take 0 to 7 squarings, so the stack mixes counts.
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((6, 5, 4, 4)) * 10.0 ** rng.uniform(-3.0, 1.5, (6, 5, 1, 1))
    stack[2, 3] = 0.0
    got = mat_exp(stack)
    assert got.shape == stack.shape
    flat = stack.reshape(-1, 4, 4)
    counts = {math.ceil(math.log2(max(frobenius_norm(Z), 0.5) / 0.5)) for Z in flat}
    assert len(counts) >= 5
    singles = [mat_exp(Z) for Z in flat]
    assert got.reshape(-1, 4, 4).tobytes() == np.array(singles).tobytes()
    np.testing.assert_array_equal(got[2, 3], np.eye(4))


def test_bracket_of_stacks_is_that_of_each_pair():
    rng = np.random.default_rng(12)
    X, Y = rng.standard_normal((2, 7, 4, 4))
    got = bracket(X, Y)
    assert all(np.array_equal(got[i], bracket(X[i], Y[i])) for i in range(7))
    with pytest.raises(ValueError):
        bracket(X, Y[0])


def test_mat_exp_periodic_boost_wraps_to_reflection():
    # sigma = -1 boost of norm pi along the first axis
    Z = np.zeros((3, 3))
    Z[0, 2] = np.pi
    Z[2, 0] = -np.pi
    np.testing.assert_allclose(mat_exp(Z), np.diag([-1.0, 1.0, -1.0]), atol=1e-12)


def test_dagger_validation():
    Z = np.eye(3)
    for sigma in (0.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite nonzero sigma"):
            dagger(Z, sigma)
    with pytest.raises(ValueError):
        dagger(np.ones((2, 3)), 1.0)


def test_dagger_spatial_block_is_an_exact_transpose():
    rng = np.random.default_rng(6)
    for sigma in rng.uniform(0.1, 10.0, 50):
        if math.frexp(sigma)[0] == 0.5:
            continue  # a power of two scales exactly anyway
        Z = rng.standard_normal((4, 4))
        for s in (sigma, -sigma):
            assert np.array_equal(dagger(Z, s)[:3, :3], Z[:3, :3].T)


def test_dagger_at_extreme_sigma_stays_finite():
    # -sigma * x / -sigma would overflow to inf before dividing back
    Z = np.zeros((3, 3))
    Z[:2, :2] = 1e10
    Z[:2, 2] = 1.0
    out = dagger(Z, 1e300)
    np.testing.assert_array_equal(out[:2, :2], np.full((2, 2), 1e10))
    np.testing.assert_array_equal(out[2, :2], [-1e300, -1e300])
    np.testing.assert_array_equal(out[:, 2], 0.0)


def test_dagger_negates_rotation_generators():
    Z = np.zeros((4, 4))
    Z[0, 1], Z[1, 0] = 1.0, -1.0
    Z[1, 2], Z[2, 1] = -0.5, 0.5
    for sigma in (1.0, -1.0):
        np.testing.assert_allclose(dagger(Z, sigma), -Z, atol=1e-15)


def test_dagger_moves_column_to_negated_row():
    Z = np.zeros((3, 3))
    Z[0, 2] = 1.0  # column vector e1
    out = dagger(Z, 1.0)
    expected = np.zeros((3, 3))
    expected[2, 0] = -1.0
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_dagger_matches_explicit_gram_conjugation():
    rng = np.random.default_rng(4)
    for sigma in (1.7, -1.7):
        g = np.diag([-sigma, -sigma, -sigma, 1.0])
        for _ in range(5):
            Z = rng.standard_normal((4, 4))
            oracle = np.linalg.inv(g) @ Z.T @ g
            np.testing.assert_allclose(dagger(Z, sigma), oracle, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(SMALL_MATRICES, st.sampled_from([0.5, 1.0, -2.0]), st.sampled_from([1, -1]))
def test_dagger_involution(Z, sigma, sign):
    s = sign * sigma
    np.testing.assert_allclose(dagger(dagger(Z, s), s), Z, atol=1e-14)


def test_dagger_reverses_products():
    rng = np.random.default_rng(5)
    sigma = -0.8
    for _ in range(10):
        X = rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3))
        lhs = dagger(X @ Y, sigma)
        rhs = dagger(Y, sigma) @ dagger(X, sigma)
        assert op_norm(lhs - rhs) <= 1e-12 * (1.0 + op_norm(lhs))
