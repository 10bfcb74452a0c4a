import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kinematica.matcore import (
    as_square_stack,
    balance,
    bracket,
    dagger,
    mat_exp,
    mixing_maxima,
    op_norm as frobenius_norm,
    scaled,
    sigma_unit,
    unit_exponent,
)


def op_norm(m) -> float:
    """Spectral norm: the tests measure in it, whatever norm the library
    scales its tolerances by."""
    return float(np.linalg.norm(m, 2))


ENTRIES = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
SMALL_MATRICES = arrays(np.float64, (3, 3), elements=ENTRIES)


def test_as_square_stack_rejects_bad_input():
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3))):
        with pytest.raises(ValueError, match="expected square matrices"):
            as_square_stack(bad)
    with pytest.raises(ValueError, match="at least 2"):
        as_square_stack(np.ones((1, 1)))
    with pytest.raises(ValueError, match="finite"):
        as_square_stack([[np.nan, 0.0], [0.0, 1.0]])


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


def test_balance_from_sigma_maps_the_boost_generator_exactly():
    # D = diag(1, ..., 1, 2^-k) sends the generator of b at sigma to that of
    # 2^k b at 4^-k sigma, with 4^-k sigma in [1/2, 2), bit for bit.
    rng = np.random.default_rng(7)
    for sigma in (1.0, 0.7, 3.0, 1e-12, 1e12, -1e300, 5e-324, 1.7e308):
        b = rng.uniform(-1.0, 1.0, 3)
        Z = np.zeros((4, 4))
        Z[:3, 3], Z[3, :3] = b, sigma * b
        k, unit = sigma_unit(sigma)
        assert balance(Z, k) is Z
        assert 0.5 <= abs(math.ldexp(sigma, -2 * k)) < 2.0
        assert unit == math.ldexp(sigma, -2 * k)
        np.testing.assert_array_equal(Z[:3, 3], np.ldexp(b, k))
        np.testing.assert_array_equal(Z[3, :3], np.ldexp(sigma * b, -k))
    assert sigma_unit(0.0) == (0, 0.0) and sigma_unit(math.inf) == (0, math.inf)


def _shift(k):
    """The binary exponents that balance(x, k) adds to a 4 x 4 matrix."""
    shift = np.zeros((4, 4), dtype=int)
    shift[:3, 3], shift[3, :3] = k, -k
    return shift


def test_balance_of_exponents_matches_balance_of_values():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4))
    mant, exps = np.frexp(a)
    k = sigma_unit(1e-20)[0]
    assert k == -33
    x, e = scaled(a, None, _shift(k))  # balanced on the exponents, then one ldexp
    y, f = scaled(balance(a.copy(), k))
    assert x.tobytes() == y.tobytes() and e == f
    np.testing.assert_array_equal(np.ldexp(mant, exps), a)
    np.testing.assert_array_equal(a, np.ldexp(scaled(a)[0], scaled(a)[1]))
    # A stack gets each matrix's bits: a zero matrix, entries of 5e-324 and 1.7e308.
    stack = np.stack([a, np.zeros((4, 4)), np.full((4, 4), 5e-324), a / abs(a).max() * 1e308])
    stack[3, 0, 3] = 1.7e308  # in the last column
    x, e = scaled(stack, (-2, -1))
    assert e.shape == (4,) and e[2] == -1073 and e[3] == 1024
    np.testing.assert_array_equal(x[1], 0.0)
    np.testing.assert_array_equal(x[2], 0.5)
    for m, xm, em in zip(stack, x, e):
        assert scaled(m)[0].tobytes() == xm.tobytes() and scaled(m)[1] == em
        assert m.tobytes() == np.ldexp(xm, em).tobytes()  # the scale is exact
        assert not m.any() or 0.5 <= abs(xm).max() < 1.0
    # With a shift, no entry passes the float range before the one rounding: balancing the
    # values by k = 1 first would overflow the last column of 1.7e308 and lose the last
    # row of 5e-324.
    x, e = scaled(stack, (-2, -1), _shift(1))
    assert e[2] == -1072 and e[3] == 1025
    assert x[0].tobytes() == scaled(balance(a.copy(), 1))[0].tobytes()
    np.testing.assert_array_equal(x[1], 0.0)
    for m, xm, em in zip(stack[2:], x[2:], e[2:]):
        np.testing.assert_array_equal(xm, np.ldexp(m, _shift(1) - em))
    assert x[2, 3, 0] == 0.125


def levelled(x):
    """balance's k from the largest mixing entries of x, as the callers without a sigma take it."""
    return unit_exponent(*mixing_maxima(x))


def test_balance_without_sigma_levels_the_mixing_entries():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((3, 4, 4))
    for j in (0, 1, -1, 12, -12, 23, -23):
        x = stack.copy()
        x[:, 3, :3] *= 2.0 ** j
        x[:, :3, 3] /= 2.0 ** j
        y = x.copy()
        k = levelled(y)
        assert balance(y, k) is y
        ratio = abs(y[:, 3, :3]).max() / abs(y[:, :3, 3]).max()
        assert 0.25 <= ratio < 2.0
        assert balance(y, -k) is y
        np.testing.assert_array_equal(y, x)  # -k undoes it
    # over the last axis the maxima, and so k, are per matrix, as reconstruct reads a stack
    b, c = mixing_maxima(stack, -1)
    assert b.tolist() == [abs(m[:3, 3]).max() for m in stack]
    assert c.tolist() == [abs(m[3, :3]).max() for m in stack]


def test_balance_leaves_galilei_and_carroll_content_alone():
    x = np.zeros((2, 4, 4))
    x[:, :3, 3] = [[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]
    assert levelled(x) == 0  # no row: Galilei
    np.testing.assert_array_equal(balance(x.copy(), levelled(x)), x)
    carroll = x.swapaxes(-1, -2).copy()
    assert levelled(carroll) == 0  # no column
    np.testing.assert_array_equal(balance(carroll.copy(), levelled(carroll)), carroll)


def test_frexp_is_called_only_in_matcore():
    # matcore is the one home of the power-of-two scale and of the time unit
    callers = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "kinematica").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "frexp"
                    or isinstance(node, ast.Name) and node.id == "frexp"
                    or isinstance(node, ast.alias) and node.name == "frexp"):
                callers.add(path.name)
    assert callers == {"matcore.py"}


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
